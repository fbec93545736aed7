(* Tests for the scenario runner and shape-level regression tests for the
   three paper experiments: the reproduction's headline numbers must stay
   in the published ballpark. *)

module Scenario = Raid_sim.Scenario
module Runner = Raid_sim.Runner
module Experiment1 = Raid_sim.Experiment1
module Experiment2 = Raid_sim.Experiment2
module Experiment3 = Raid_sim.Experiment3
module Config = Raid_core.Config
module Cost_model = Raid_core.Cost_model
module Workload = Raid_core.Workload
module Cluster = Raid_core.Cluster

let small_config = Config.make ~cost:Cost_model.free ~num_sites:2 ~num_items:10 ()
let workload = Workload.Uniform { max_ops = 3; write_prob = 0.5 }

let test_runner_counts_txns () =
  let scenario = Scenario.make ~config:small_config ~workload [ Scenario.Run_txns 20 ] in
  let result = Runner.run scenario in
  Alcotest.(check int) "twenty records" 20 (List.length result.Runner.records);
  Alcotest.(check int) "all committed" 20 result.Runner.committed;
  Alcotest.(check int) "none aborted" 0 result.Runner.aborted

let test_runner_determinism () =
  let scenario =
    Scenario.make ~seed:77 ~config:small_config ~workload
      [ Scenario.Fail 0; Scenario.Run_txns 15; Scenario.Recover 0; Scenario.Run_txns 15 ]
  in
  let a = Runner.run scenario and b = Runner.run scenario in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "identical series" (Runner.series a ~site:0) (Runner.series b ~site:0)

let test_runner_fixed_policy_rejects_down_site () =
  let scenario =
    Scenario.make ~policy:(Scenario.Fixed 0) ~config:small_config ~workload
      [ Scenario.Fail 0; Scenario.Run_txns 1 ]
  in
  Alcotest.check_raises "fixed coordinator down"
    (Invalid_argument "Driver: fixed coordinator 0 is not operational") (fun () ->
      ignore (Runner.run scenario))

let test_runner_round_robin () =
  let config = Config.make ~cost:Cost_model.free ~num_sites:3 ~num_items:10 () in
  let scenario =
    Scenario.make ~policy:Scenario.Round_robin ~config ~workload [ Scenario.Run_txns 6 ]
  in
  let result = Runner.run scenario in
  let coordinators =
    List.map (fun r -> r.Runner.outcome.Raid_core.Metrics.coordinator) result.Runner.records
  in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2 ] coordinators

let test_weighted_drops_down_sites () =
  (* Site 0 carries weight but is down: its weight must be dropped, not
     spread uniformly, so every transaction goes to the other weighted
     site and none to the unweighted one. *)
  let config = Config.make ~cost:Cost_model.free ~num_sites:3 ~num_items:10 () in
  let scenario =
    Scenario.make ~policy:(Scenario.Weighted [ (0, 5.0); (2, 1.0) ]) ~config ~workload
      [ Scenario.Fail 0; Scenario.Run_txns 10 ]
  in
  let result = Runner.run scenario in
  let coordinators =
    List.map (fun r -> r.Runner.outcome.Raid_core.Metrics.coordinator) result.Runner.records
  in
  Alcotest.(check (list int)) "only the live weighted site" (List.init 10 (fun _ -> 2)) coordinators

let test_operational_sites_excludes_blocked () =
  let cluster = Cluster.create small_config in
  Alcotest.(check (list int)) "all up" [ 0; 1 ] (Cluster.operational_sites cluster);
  Cluster.fail_site cluster 1;
  Alcotest.(check (list int)) "down site left out" [ 0 ] (Cluster.operational_sites cluster);
  Cluster.fail_site cluster 0;
  Alcotest.(check bool) "no donor" true (Cluster.recover_site cluster 0 = `Blocked);
  Alcotest.(check (list int)) "blocked site is alive" [ 0 ] (Cluster.alive_sites cluster);
  Alcotest.(check (list int)) "but not operational" [] (Cluster.operational_sites cluster)

let test_run_until_consistent_stops () =
  let scenario =
    Scenario.make ~seed:3 ~config:small_config ~workload
      [
        Scenario.Fail 0;
        Scenario.Run_txns 30;
        Scenario.Recover 0;
        Scenario.Run_until_consistent { max_txns = 2000 };
      ]
  in
  let result = Runner.run scenario in
  Alcotest.(check bool) "consistent at end" true (Cluster.fully_consistent result.Runner.cluster)

(* Shape-level regressions against the paper's published numbers. *)

let within ~tolerance ~paper measured =
  Float.abs (measured -. paper) /. paper <= tolerance

let test_experiment1_shapes () =
  let reports = Experiment1.all () in
  List.iter
    (fun report ->
      List.iter
        (fun row ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %.1f within 10%% of %.0f" row.Experiment1.label
               row.Experiment1.measured_ms row.Experiment1.paper_ms)
            true
            (within ~tolerance:0.10 ~paper:row.Experiment1.paper_ms row.Experiment1.measured_ms))
        report.Experiment1.rows)
    reports

let test_experiment2_shape () =
  let e2 = Experiment2.run () in
  let s = e2.Experiment2.stats in
  Alcotest.(check bool) "peak above 90%" true (s.Experiment2.peak_fraction > 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "recovery length %d near 160" s.Experiment2.txns_to_recover)
    true
    (s.Experiment2.txns_to_recover > 100 && s.Experiment2.txns_to_recover < 260);
  Alcotest.(check bool) "few copiers" true (s.Experiment2.copier_requests <= 5);
  Alcotest.(check int) "no aborts" 0 s.Experiment2.aborted;
  (* Convexity: early clearing is much faster than the tail. *)
  (match (s.Experiment2.first_10_cleared_in, s.Experiment2.last_10_cleared_in) with
  | Some first, Some last -> Alcotest.(check bool) "fast head, slow tail" true (first * 3 < last)
  | _ -> Alcotest.fail "clearing statistics missing")

let test_experiment3_shapes () =
  let s1 = Experiment3.scenario1 () in
  Alcotest.(check bool)
    (Printf.sprintf "scenario 1 aborts %d near 13" s1.Experiment3.aborted)
    true
    (s1.Experiment3.aborted >= 8 && s1.Experiment3.aborted <= 20);
  let s2 = Experiment3.scenario2 () in
  Alcotest.(check int) "scenario 2 aborts none" 0 s2.Experiment3.aborted

let suite =
  [
    Alcotest.test_case "runner counts transactions" `Quick test_runner_counts_txns;
    Alcotest.test_case "runner determinism" `Quick test_runner_determinism;
    Alcotest.test_case "fixed policy rejects down site" `Quick
      test_runner_fixed_policy_rejects_down_site;
    Alcotest.test_case "round-robin policy" `Quick test_runner_round_robin;
    Alcotest.test_case "run-until-consistent stops" `Quick test_run_until_consistent_stops;
    Alcotest.test_case "experiment 1 within 10% of paper" `Slow test_experiment1_shapes;
    Alcotest.test_case "experiment 2 shape (figure 1)" `Slow test_experiment2_shape;
    Alcotest.test_case "experiment 3 shapes (figures 2-3)" `Slow test_experiment3_shapes;
    Alcotest.test_case "weighted policy drops down sites" `Quick test_weighted_drops_down_sites;
    Alcotest.test_case "operational sites exclude blocked" `Quick
      test_operational_sites_excludes_blocked;
  ]
