(** The managing site's transaction driver (paper §1.2): it owns one
    cluster, its workload stream, the coordinator RNG, the coordinator
    policy and a cache of {!Raid_core.Cluster.operational_sites}.  This
    is the only implementation of the {!Scenario.coordinator_policy}
    variants.

    The operational set only changes when a site fails, recovers or
    terminates, so {!fail}, {!recover} and {!terminate} refresh the
    cache.  Failing or recovering a site through {!Raid_core.Cluster}
    directly leaves it stale. *)

type t

val create :
  policy:Scenario.coordinator_policy ->
  rng:Raid_util.Rng.t ->
  workload:Raid_core.Workload.t ->
  Raid_core.Cluster.t ->
  t
(** [rng] is drawn only by the [Uniform_random] and [Weighted]
    policies. *)

val cluster : t -> Raid_core.Cluster.t
val set_policy : t -> Scenario.coordinator_policy -> unit

val next_txn : t -> Raid_core.Txn.t
(** The workload's next transaction, numbered by
    {!Raid_core.Cluster.next_txn_id}. *)

val choose_coordinator : t -> int
(** [Fixed s] picks [s]; [Uniform_random] draws over the operational
    sites; [Weighted] draws over the operational sites' positive
    weights, or uniformly when there are none; [Round_robin] steps
    through the operational sites in id order.
    @raise Invalid_argument if no site is operational, or a [Fixed]
    coordinator is not. *)

val submit_next : t -> Raid_core.Metrics.outcome
(** Choose a coordinator, then submit {!next_txn} to it and run the
    cluster to quiescence.
    @raise Invalid_argument as {!choose_coordinator}. *)

val fail : t -> int -> unit
val recover : t -> int -> [ `Recovered | `Blocked ]
val terminate : t -> int -> unit
(** The {!Raid_core.Cluster} actions, each followed by a refresh of the
    operational set. *)
