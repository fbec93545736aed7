(** Declarative experiment scenarios.

    Each of the paper's experiments is a schedule of managing-site actions
    taken at transaction boundaries ("Before transaction 26, we brought
    site 0 up and failed site 1", §4.2.1).  A scenario is that schedule:
    a configuration, a workload, a coordinator policy and an action
    list. *)

type coordinator_policy =
  | Fixed of int  (** all transactions to one site (must be operational) *)
  | Uniform_random  (** uniform over currently-operational sites *)
  | Weighted of (int * float) list
      (** weighted random over the operational subset of the listed
          sites; weights of down sites are renormalised away *)
  | Round_robin
      (** cycle through operational sites in id order *)

type action =
  | Run_txns of int  (** generate and process this many transactions *)
  | Fail of int
  | Recover of int
  | Set_policy of coordinator_policy
  | Run_until_recovered of { site : int; max_txns : int }
      (** keep processing transactions until no item is fail-locked for
          [site] (or the bound is hit) *)
  | Run_until_consistent of { max_txns : int }
      (** ... until [Cluster.fully_consistent] *)

type t = {
  config : Raid_core.Config.t;
  detection : Raid_core.Cluster.detection;
  workload : Raid_core.Workload.spec;
  policy : coordinator_policy;
  seed : int;
  actions : action list;
}

val make :
  ?detection:Raid_core.Cluster.detection ->
  ?policy:coordinator_policy ->
  ?seed:int ->
  config:Raid_core.Config.t ->
  workload:Raid_core.Workload.spec ->
  action list ->
  t
(** Defaults: immediate detection, [Uniform_random] policy, seed 42.
    @raise Invalid_argument when the workload does not fit the
    configuration (see {!Raid_core.Workload.validate}) or an action
    names a site outside the cluster. *)
