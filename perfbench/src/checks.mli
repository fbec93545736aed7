(** Output checks the benchmark runs on a workload's final cluster. *)

val invariants : by_item:bool -> Raid_core.Cluster.t -> (unit, string) result
(** {!Raid_core.Invariant.all}.  With [by_item], its fail-lock rule is
    evaluated item by item over each item's holders instead — the same
    rule, affordable on a 256-site, 100k-item cluster — followed by the
    library's [no_stale_reads] and [session_vectors_sane]. *)

val faillocks_track_staleness_by_item : Raid_core.Cluster.t -> (unit, string) result
(** The fail-lock rule of {!Raid_core.Invariant.faillocks_track_staleness}:
    every checkable copy that is behind the latest committed version is
    fail-locked in the union of the alive sites' tables (or its staleness
    was recorded as lost), and no current copy is. *)
