module Cluster = Raid_core.Cluster
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Txn = Raid_core.Txn
module Invariant = Raid_core.Invariant
module Rng = Raid_util.Rng

type txn_record = { index : int; outcome : Metrics.outcome; faillocks_per_site : int array }

type result = {
  cluster : Cluster.t;
  records : txn_record list;
  committed : int;
  aborted : int;
}

let run ?(check_invariants = true) ?(trace = false) ?obs ?telemetry (scenario : Scenario.t) =
  let cluster =
    Cluster.of_spec
      (Cluster.Spec.make ~detection:scenario.Scenario.detection ~trace ?obs ?telemetry
         scenario.Scenario.config)
  in
  let rng = Rng.create scenario.Scenario.seed in
  let workload =
    Workload.create scenario.Scenario.workload
      ~num_items:scenario.Scenario.config.Raid_core.Config.num_items ~rng:(Rng.split rng)
  in
  let driver = Driver.create ~policy:scenario.Scenario.policy ~rng ~workload cluster in
  let records_rev = ref [] in
  let rec run_while condition remaining =
    if remaining > 0 && condition () then begin
      let outcome = Driver.submit_next driver in
      let faillocks_per_site = Cluster.faillock_counts cluster in
      records_rev :=
        { index = outcome.Metrics.txn.Txn.id; outcome; faillocks_per_site } :: !records_rev;
      run_while condition (remaining - 1)
    end
  in
  let run_action action =
    (match action with
    | Scenario.Run_txns n -> run_while (fun () -> true) n
    | Scenario.Fail site -> Driver.fail driver site
    | Scenario.Recover site -> ignore (Driver.recover driver site)
    | Scenario.Set_policy policy -> Driver.set_policy driver policy
    | Scenario.Run_until_recovered { site; max_txns } ->
      run_while (fun () -> Cluster.faillock_count_for cluster site > 0) max_txns
    | Scenario.Run_until_consistent { max_txns } ->
      run_while (fun () -> not (Cluster.fully_consistent cluster)) max_txns);
    if check_invariants then
      match Invariant.all cluster with
      | Ok () -> ()
      | Error message -> failwith (Printf.sprintf "Runner: invariant violated: %s" message)
  in
  List.iter run_action scenario.Scenario.actions;
  let records = List.rev !records_rev in
  let committed = List.length (List.filter (fun r -> r.outcome.Metrics.committed) records) in
  { cluster; records; committed; aborted = List.length records - committed }

let series (result : result) ~site =
  List.map
    (fun r -> (float_of_int r.index, float_of_int r.faillocks_per_site.(site)))
    result.records

let final_faillocks (result : result) ~site = Cluster.faillock_count_for result.cluster site
