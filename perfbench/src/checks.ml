module Cluster = Raid_core.Cluster
module Invariant = Raid_core.Invariant
module Site = Raid_core.Site
module Faillock = Raid_core.Faillock
module Database = Raid_storage.Database

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* The rule of [Invariant.faillocks_track_staleness], walked item by item
   over each item's holders.  The library walks site by site and rebuilds
   the union fail-lock view for every site, O(items x sites^2): at 256
   sites and 100k items that is minutes, where this is seconds. *)
let faillocks_track_staleness_by_item cluster =
  let n_sites = Cluster.num_sites cluster in
  let num_items = (Cluster.config cluster).Raid_core.Config.num_items in
  let alive = Array.of_list (Cluster.alive_sites cluster) in
  let tables = Array.map (fun s -> Site.faillocks (Cluster.site cluster s)) alive in
  let checkable =
    Array.init n_sites (fun s ->
        Cluster.alive cluster s && not (Site.is_waiting (Cluster.site cluster s)))
  in
  let rec item_loop item =
    if item >= num_items then Ok ()
    else
      let reference = Cluster.committed_version cluster item in
      let rec site_loop s =
        if s >= n_sites then item_loop (item + 1)
        else
          let site = Cluster.site cluster s in
          if not (checkable.(s) && Site.stores site ~item) then site_loop (s + 1)
          else
            let version = Option.get (Database.version (Site.database site) item) in
            let behind = version < reference in
            let locked =
              Array.exists (fun table -> Faillock.is_locked table ~item ~site:s) tables
            in
            if behind && (not locked) && not (Cluster.knowledge_lost cluster ~item ~site:s) then
              Error
                (Printf.sprintf "site %d item %d is behind (v%d < v%d) but not fail-locked" s item
                   version reference)
            else if locked && not behind then
              Error
                (Printf.sprintf "site %d item %d is fail-locked but current (v%d)" s item version)
            else site_loop (s + 1)
      in
      site_loop 0
  in
  item_loop 0

let invariants ~by_item cluster =
  if not by_item then Invariant.all cluster
  else
    let* () = faillocks_track_staleness_by_item cluster in
    let* () = Invariant.no_stale_reads cluster in
    Invariant.session_vectors_sane cluster
