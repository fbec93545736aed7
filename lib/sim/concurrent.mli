(** Concurrent transaction processing (the paper's "complete RAID"
    future-work direction, §5).

    The serial driver of {!Runner} processes one transaction at a time,
    as the paper did.  This driver keeps up to [concurrency] transactions
    in flight: it acquires each transaction's full lock set from the
    conservative strict-2PL table ({!Raid_core.Lock_manager}) before
    injecting it, so in-flight transactions never conflict, executions
    are conflict-serializable, and per-item version order is preserved
    (a transaction is additionally never started ahead of a {e
    conflicting} lower-numbered waiting transaction).

    The payoff is wall-clock (virtual-time) overlap: the makespan of a
    batch shrinks as the concurrency level grows until conflicts and the
    coordinator population saturate — measured by {!sweep}. *)

type result = {
  committed : int;
  aborted : int;
  lost : int;
      (** transactions whose coordinator crashed mid-flight; their locks
          are released and they are not retried (retrying would need the
          2PC termination protocol the paper's serial model sidesteps) *)
  makespan_ms : float;  (** virtual time from first injection to quiescence *)
  mean_txn_ms : float;  (** mean committed-coordinator elapsed time *)
  max_in_flight : int;  (** highest concurrency actually reached *)
  cluster : Raid_core.Cluster.t;
}

val run :
  ?seed:int ->
  ?concurrency:int ->
  ?txns:int ->
  ?churn:(int * [ `Fail of int | `Recover of int ]) list ->
  ?telemetry:Raid_obs.Telemetry.t ->
  config:Raid_core.Config.t ->
  workload:Raid_core.Workload.spec ->
  unit ->
  result
(** Run a batch of [txns] (default 200) generated transactions with up to
    [concurrency] (default 4) in flight, coordinators assigned round-robin
    over operational sites by a {!Driver}.

    [churn] injects failures into the running batch: [(n, `Fail s)] fails
    site [s] once [n] transactions have finished (committed, aborted or
    lost); [`Recover s] brings it back.  No transaction is admitted while
    an action runs, so each fires within [concurrency] completions of its
    threshold.  Transactions in flight at a
    crashed coordinator are counted as [lost]; transactions that had the
    crashed site as a participant abort through the normal Appendix-A
    branches and are re-admitted never (they count as [aborted]).

    [telemetry] additionally registers driver-level gauges
    ([raid_lock_table_locked], [raid_lock_queue_depth],
    [raid_lock_in_flight]) on top of the cluster instrumentation.
    @raise Invalid_argument on non-positive [concurrency] or [txns], or
    when churn leaves no operational site to coordinate a waiting
    transaction. *)

type sweep_row = {
  level : int;
  sweep_makespan_ms : float;
  sweep_mean_txn_ms : float;
  speedup : float;  (** serial makespan / this makespan *)
}

val sweep :
  ?domains:int ->
  ?seed:int ->
  ?levels:int list ->
  ?txns:int ->
  ?num_sites:int ->
  unit ->
  sweep_row list
(** One independent simulation per concurrency level, fanned out over
    [?domains] {!Raid_par.Pool} domains. *)

val sweep_table : sweep_row list -> Raid_util.Table.t
