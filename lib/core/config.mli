(** System configuration.

    Mirrors the parameters the paper's managing site exposes (§1.2): "the
    database size in terms of the number of data items", "the number of
    database sites for the transaction processing (not including the
    managing site)", and the transaction-size bound (which lives in
    {!Workload}).  Extended with the knobs this reproduction adds: the
    cost model, the replication map, the recovery policy (for the paper's
    proposed two-step extension) and control-transaction-type-3 backup
    spawning. *)

type replication =
  | Full  (** every site stores every item (paper assumption 4) *)
  | Partial of Placement.spec
      (** k copies per item on sharded replica sets ({!Placement}).
          Enables the paper's §3.2 control-type-3 discussion; a factor
          covering every site degenerates to [Full]. *)

type durability =
  | In_memory
      (** the paper's assumption 3: copies live in each site process's
          virtual memory; a crash loses nothing but volatile protocol
          state *)
  | Durable_wal of { checkpoint_interval : int }
      (** each site runs a checkpointed redo log ({!Raid_storage.Wal}); a
          crash wipes the volatile database, and recovery replays the log
          before running control transaction type 1 *)

type recovery_policy =
  | On_demand
      (** The paper's implementation: copier transactions only when a
          transaction at the recovering coordinator reads a fail-locked
          copy. *)
  | Two_step of { threshold : float; batch_size : int }
      (** The paper's §3.2 proposal: once the fraction of items
          fail-locked for the recovering site drops to [threshold] or
          below, proactively refresh the remaining out-of-date copies
          with batch copier transactions, [batch_size] items at a time.
          [threshold = 1.0] batches immediately upon recovery. *)

type t = {
  num_sites : int;
  num_items : int;
  cost : Cost_model.t;
  replication : replication;
  recovery : recovery_policy;
  spawn_backups : bool;
      (** control transaction type 3: when a committed write leaves a
          single operational up-to-date copy of an item, copy it to a
          site that holds none (meaningful under [Partial]) *)
  durability : durability;
  embed_clears : bool;
      (** the optimisation the paper sketches in §2.2.3: instead of a
          separate special transaction after copier transactions,
          piggy-back the cleared fail-lock information on the two-phase
          commit (and abort) messages *)
  faillocks_enabled : bool;
      (** [false] reproduces Experiment 1's "fail-locks maintenance code
          removed from the software" runs; only safe while no site
          fails *)
}

val make :
  ?cost:Cost_model.t ->
  ?replication:replication ->
  ?recovery:recovery_policy ->
  ?spawn_backups:bool ->
  ?durability:durability ->
  ?embed_clears:bool ->
  ?faillocks_enabled:bool ->
  num_sites:int ->
  num_items:int ->
  unit ->
  t
(** Defaults: calibrated cost model, full replication, on-demand
    recovery, no backup spawning, in-memory durability, separate clear
    transactions (as in the paper), fail-locks enabled.
    @raise Invalid_argument on non-positive sizes, more than 1024 sites
    (a sanity bound; fail-lock bitmaps are [Bytes]-backed and grow with
    the site count), an invalid [Partial] spec (non-positive factor,
    ill-formed affinity map), or an out-of-range two-step threshold. *)

val placement : t -> Placement.t
(** The resolved static placement ({!Placement.full} under [Full]). *)

val stores : t -> site:int -> item:int -> bool
(** Initial placement. *)
