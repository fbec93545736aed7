(** Steady-state throughput measurement (beyond the paper's scale).

    The paper's experiments measure costs around a single failure and
    recovery at 4 sites and 50 items; this layer measures {e sustained}
    load on a configurable cluster: a serial open-loop transaction stream
    (arrivals never adapt to outcomes) runs for a fixed virtual duration
    with an optional failure + recovery at absolute virtual times mid-run.
    The deterministic result reports committed transactions per virtual
    second, the abort rate, and the host-side event count — the events/sec
    rate is computed by the caller from its own wall clock so the
    simulation output stays bit-identical across hosts and [-j] values. *)

type failure = { fail_site : int; fail_at_ms : float; recover_at_ms : float }

type config = {
  sites : int;
  items : int;
  max_ops : int;
  write_prob : float;
  duration_ms : float;  (** virtual run length *)
  failure : failure option;
  replication : Raid_core.Config.replication;
  zipf_theta : float option;  (** hot-spot skew; [None] keeps the uniform draw *)
}

val make_config :
  ?sites:int ->
  ?items:int ->
  ?max_ops:int ->
  ?write_prob:float ->
  ?duration_ms:float ->
  ?failure:failure ->
  ?replication:Raid_core.Config.replication ->
  ?zipf_theta:float ->
  unit ->
  config
(** Defaults: 16 sites, 500 items, txn <= 5 ops, P(write) 0.5, 10 000
    virtual ms, no failure, full replication, uniform items.
    @raise Invalid_argument on non-positive sizes/duration, a
    [zipf_theta] outside (0,1), a transaction mix
    {!Raid_core.Workload.validate} rejects, a failure plan on a 1-site
    cluster, an out-of-range [fail_site], or [recover_at_ms <=
    fail_at_ms]. *)

val default_failure : duration_ms:float -> failure
(** Site 0 down from 1/5 to 1/2 of the duration — computed once into
    absolute times, so extending the duration afterwards still yields a
    prefix-compatible schedule. *)

type window = {
  w_start_s : int;  (** window start, in whole virtual seconds *)
  w_committed : int;
  w_aborted : int;
  w_copiers : int;  (** copier transactions requested in this window *)
  w_faillocks_set : int;
  w_faillocks_cleared : int;
  w_messages : int;  (** messages submitted in this window *)
}
(** One virtual second of activity.  Commit/abort counts are exact per
    window; the protocol counters are cumulative snapshots at each
    window's last completed transaction, diffed between consecutive
    {e recorded} windows — activity in a second with no completions
    lands in the next recorded window. *)

type result = {
  seed : int;
  submitted : int;
  committed : int;
  aborted : int;
  copier_requests : int;
  faillocks_set : int;
  faillocks_cleared : int;
  virtual_ms : float;
  events : int;  (** messages delivered + timers fired *)
  messages_sent : int;
  recovered : bool;
  windows : window list;  (** ascending start time *)
  incidents : Raid_obs.Incident.t list;
      (** recovery timelines of the staged failure; empty unless the run
          was started with [record_incidents] *)
}

val run :
  ?seed:int -> ?telemetry:Raid_obs.Telemetry.t -> ?record_incidents:bool -> config -> result
(** One deterministic run: a pure function of [seed] and [config].
    [telemetry] is instrumented over the cluster
    ({!Raid_core.Cluster.create}) and sampled in virtual time as the
    stream runs, with a final sample at the end; it observes the run
    without changing any result field.  [record_incidents] (default
    false) attaches an {!Raid_obs.Incident.recorder} and fills
    [result.incidents]; like telemetry it observes without perturbing
    the virtual-time results. *)

val run_seeds :
  ?domains:int -> ?base_seed:int -> ?record_incidents:bool -> seeds:int -> config -> result list
(** [seeds] independent runs ([base_seed], [base_seed+1], ...) fanned out
    over the domain pool; result order and contents are bit-identical for
    any domain count. *)

val txns_per_vsec : result -> float
(** Committed transactions per virtual second. *)

val abort_rate : result -> float
(** Aborted / (committed + aborted); 0 on an empty run. *)

val results_table : config:config -> result list -> Raid_util.Table.t

val windows_csv : result -> string
(** The per-virtual-second trajectory as CSV with header
    [virtual_s,committed,aborted,copier_requests,faillocks_set,faillocks_cleared,messages_sent]. *)
