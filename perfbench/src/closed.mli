(** The serial closed-loop workloads, [full64] and [partial256].

    One client submits the next transaction when {!Raid_core.Cluster.submit}
    returns, as the paper's managing site does, to a random operational
    coordinator.  Every [fail_every] transactions the site failed in the
    previous cycle is recovered and another random site is failed, so
    exactly one site is down at a time after the first cycle.  Detection
    is [Immediate], storage is in memory and no observation sink is
    attached. *)

type params = {
  sites : int;
  items : int;
  replication : Raid_core.Config.replication;
  spec : Raid_core.Workload.spec;
  fail_every : int;  (** transactions per rolling fail/recover cycle *)
  rss_at : int;
      (** [peak_rss_mb] is the process's peak RSS once this many
          transactions are submitted: a fixed amount of work, since
          [Cluster] keeps every outcome and a run's length in
          transactions follows its speed *)
  by_item_check : bool;  (** check invariants with {!Checks.invariants} [~by_item] *)
}

val full64 : params
val partial256 : params

type budget = Outcome.budget = Seconds of float | Txns of int

val run : params -> seed:int -> budget:budget -> traced:bool -> Outcome.t
(** Build the cluster (timed several times for [setup_s]), then run the
    loop until the budget is spent, then check the outputs.

    Untraced, the run reports the end-to-end metrics, with the wall-time
    ones scaled by {!Host} samples taken after every cycle.  Traced, cycles
    alternate between traced and untraced: a traced cycle installs an
    engine probe that turns every engine event into a span labelled by
    its message kind under the public call in progress; the per-layer
    metrics come from the traced cycles and the tracing overhead from
    comparing the two kinds of cycle.  Deterministic counters (engine
    events, messages, committed transactions, recovery virtual time) do
    not depend on [traced]. *)
