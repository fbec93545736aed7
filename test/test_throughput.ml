(* Steady-state throughput layer: determinism across domain counts,
   monotonicity in the virtual duration (failure times are absolute, so a
   longer run extends a shorter one), basic accounting, and exact pins on
   three larger streams. *)

module Throughput = Raid_sim.Throughput

let failure = { Throughput.fail_site = 0; fail_at_ms = 100.0; recover_at_ms = 300.0 }

(* Small item space so post-recovery transactions are near-certain to touch
   fail-locked items (recovery is on-demand by default). *)
let config ?failure ?(duration_ms = 800.0) () =
  Throughput.make_config ~sites:4 ~items:20 ~duration_ms ?failure ()

let test_deterministic_across_domains () =
  let cfg = config ~failure () in
  let sequential = Throughput.run_seeds ~domains:1 ~seeds:3 cfg in
  let parallel = Throughput.run_seeds ~domains:4 ~seeds:3 cfg in
  Alcotest.(check bool) "bit-identical for any -j" true (sequential = parallel)

let test_monotone_in_duration () =
  let short = Throughput.run (config ~failure ~duration_ms:600.0 ()) in
  let long = Throughput.run (config ~failure ~duration_ms:1200.0 ()) in
  Alcotest.(check bool) "submitted grows" true (long.Throughput.submitted >= short.Throughput.submitted);
  Alcotest.(check bool) "committed grows" true (long.Throughput.committed >= short.Throughput.committed);
  Alcotest.(check bool) "aborted grows" true (long.Throughput.aborted >= short.Throughput.aborted);
  Alcotest.(check bool) "virtual time grows" true
    (long.Throughput.virtual_ms >= short.Throughput.virtual_ms);
  Alcotest.(check bool) "short run not empty" true (short.Throughput.committed > 0)

let test_failure_recovery_accounting () =
  let r = Throughput.run (config ~failure ~duration_ms:3000.0 ()) in
  Alcotest.(check int) "every txn resolves"
    r.Throughput.submitted
    (r.Throughput.committed + r.Throughput.aborted);
  Alcotest.(check bool) "failed site recovered" true r.Throughput.recovered;
  Alcotest.(check bool) "fail-locks were set" true (r.Throughput.faillocks_set > 0);
  Alcotest.(check bool) "fail-locks were cleared" true (r.Throughput.faillocks_cleared > 0);
  Alcotest.(check bool) "events counted" true (r.Throughput.events > 0);
  let window_sum f = List.fold_left (fun acc w -> acc + f w) 0 r.Throughput.windows in
  Alcotest.(check int) "windows sum to committed"
    r.Throughput.committed
    (window_sum (fun w -> w.Throughput.w_committed));
  Alcotest.(check int) "windows sum to aborted" r.Throughput.aborted
    (window_sum (fun w -> w.Throughput.w_aborted));
  (* The protocol columns are diffs of cumulative snapshots at recorded
     transactions, so their sums never exceed the run totals. *)
  Alcotest.(check bool) "window copiers bounded" true
    (window_sum (fun w -> w.Throughput.w_copiers) <= r.Throughput.copier_requests);
  Alcotest.(check bool) "window faillocks_set bounded" true
    (window_sum (fun w -> w.Throughput.w_faillocks_set) <= r.Throughput.faillocks_set);
  Alcotest.(check bool) "window faillocks_cleared bounded" true
    (window_sum (fun w -> w.Throughput.w_faillocks_cleared) <= r.Throughput.faillocks_cleared);
  Alcotest.(check bool) "window messages bounded" true
    (window_sum (fun w -> w.Throughput.w_messages) <= r.Throughput.messages_sent);
  List.iter
    (fun w ->
      Alcotest.(check bool) "window columns non-negative" true
        (w.Throughput.w_copiers >= 0 && w.Throughput.w_faillocks_set >= 0
        && w.Throughput.w_faillocks_cleared >= 0 && w.Throughput.w_messages >= 0))
    r.Throughput.windows;
  Alcotest.(check bool) "windows carry message activity" true
    (window_sum (fun w -> w.Throughput.w_messages) > 0);
  let rate = Throughput.abort_rate r in
  Alcotest.(check bool) "abort rate in [0,1]" true (rate >= 0.0 && rate <= 1.0);
  Alcotest.(check bool) "txns/vsec positive" true (Throughput.txns_per_vsec r > 0.0)

let test_no_failure_run () =
  let r = Throughput.run (config ()) in
  Alcotest.(check bool) "recovered vacuously" true r.Throughput.recovered;
  Alcotest.(check int) "nothing aborted" 0 r.Throughput.aborted;
  Alcotest.(check bool) "commits flow" true (r.Throughput.committed > 0)

let test_validation () =
  let invalid name f = Alcotest.check_raises name (Invalid_argument name) f in
  invalid "Throughput: sites must be positive" (fun () ->
      ignore (Throughput.make_config ~sites:0 ()));
  invalid "Throughput: duration must be positive" (fun () ->
      ignore (Throughput.make_config ~duration_ms:0.0 ()));
  invalid "Throughput: zipf_theta must be in (0,1)" (fun () ->
      ignore (Throughput.make_config ~zipf_theta:1.0 ()));
  invalid "Throughput: fail_site out of range" (fun () ->
      ignore
        (Throughput.make_config ~sites:4
           ~failure:{ Throughput.fail_site = 4; fail_at_ms = 1.0; recover_at_ms = 2.0 }
           ()));
  invalid "Throughput: need 0 <= fail_at < recover_at" (fun () ->
      ignore
        (Throughput.make_config ~sites:4
           ~failure:{ Throughput.fail_site = 0; fail_at_ms = 5.0; recover_at_ms = 5.0 }
           ()));
  invalid "Throughput: a failure plan needs at least 2 sites" (fun () ->
      ignore
        (Throughput.make_config ~sites:1
           ~failure:(Throughput.default_failure ~duration_ms:1000.0)
           ()))

(* Exact pins on three larger streams, each 30 000 virtual ms with the
   default failure and seeds 42-45: per-seed outcomes, the event total,
   and the staged failure's mean recovery phases.  Every field is virtual
   time or a count, so any drift is a semantic change in the protocol or
   the driver, never host noise.  At this scale the drain tail outlives
   the stream, so no incident completes and there is no MTTR to pin. *)
type pinned = {
  outcomes : (int * int) list;  (** per-seed (committed, aborted) *)
  events : int;
  txns_per_vsec : string;  (** mean over seeds, printed "%.3f" *)
  phases_ms : (string * float) list;  (** mean per phase over all incidents *)
}

let check_pinned ?(replication = Raid_core.Config.Full) ?zipf_theta ~sites ~items expected () =
  let duration_ms = 30_000.0 in
  let config =
    Throughput.make_config ~sites ~items ~duration_ms ~replication ?zipf_theta
      ~failure:(Throughput.default_failure ~duration_ms) ()
  in
  let results = Throughput.run_seeds ~seeds:4 ~record_incidents:true config in
  let label = Printf.sprintf "%d sites: %s" sites in
  Alcotest.(check (list (pair int int)))
    (label "per-seed committed/aborted") expected.outcomes
    (List.map (fun r -> (r.Throughput.committed, r.Throughput.aborted)) results);
  Alcotest.(check int) (label "events") expected.events
    (List.fold_left (fun acc r -> acc + r.Throughput.events) 0 results);
  Alcotest.(check string) (label "txns/vsec") expected.txns_per_vsec
    (Printf.sprintf "%.3f" (Raid_util.Stats.mean (List.map Throughput.txns_per_vsec results)));
  let module Incident = Raid_obs.Incident in
  let mean over f =
    List.fold_left (fun acc i -> acc +. f i) 0.0 over /. float_of_int (List.length over)
  in
  let incidents = List.concat_map (fun r -> r.Throughput.incidents) results in
  Alcotest.(check int) (label "one incident per seed") 4 (List.length incidents);
  Alcotest.(check (list (pair string (float 1e-6))))
    (label "mean recovery phases (ms)") expected.phases_ms
    (List.map
       (fun p ->
         ( Incident.phase_name p,
           mean incidents (fun i -> Raid_net.Vtime.to_ms (Incident.phase_duration i p)) ))
       Incident.all_phases);
  Alcotest.(check int) (label "complete incidents") 0
    (List.length (List.filter (fun i -> i.Incident.complete) incidents))

let phases ~outage ~resolve ~install =
  [ ("outage", outage); ("replay", 0.0); ("resolve", resolve); ("install", install);
    ("drain", 0.0) ]

let test_pinned_16_sites =
  check_pinned ~sites:16 ~items:500
    {
      outcomes = [ (172, 0); (171, 0); (175, 0); (174, 0) ];
      events = 41591;
      txns_per_vsec = "5.743";
      phases_ms = phases ~outage:9013.025 ~resolve:180.0 ~install:1198.0;
    }

let test_pinned_64_sites =
  check_pinned ~sites:64 ~items:5000
    {
      outcomes = [ (83, 0); (82, 0); (83, 0); (82, 0) ];
      events = 83538;
      txns_per_vsec = "2.740";
      phases_ms = phases ~outage:9029.775 ~resolve:756.0 ~install:11638.0;
    }

let test_pinned_256_sites_k3_zipf =
  check_pinned
    ~replication:(Raid_core.Config.Partial (Raid_core.Placement.spec ~factor:3 ()))
    ~zipf_theta:0.9 ~sites:256 ~items:100_000
    {
      outcomes = [ (88, 0); (88, 0); (91, 0); (86, 0) ];
      events = 9294;
      txns_per_vsec = "0.977";
      phases_ms = phases ~outage:8979.475 ~resolve:3060.0 ~install:232046.5;
    }

let suite =
  [
    Alcotest.test_case "deterministic across -j" `Quick test_deterministic_across_domains;
    Alcotest.test_case "monotone in duration" `Quick test_monotone_in_duration;
    Alcotest.test_case "failure/recovery accounting" `Quick test_failure_recovery_accounting;
    Alcotest.test_case "no-failure run" `Quick test_no_failure_run;
    Alcotest.test_case "config validation" `Quick test_validation;
    Alcotest.test_case "pinned: 16 sites, 500 items" `Quick test_pinned_16_sites;
    Alcotest.test_case "pinned: 64 sites, 5000 items" `Quick test_pinned_64_sites;
    Alcotest.test_case "pinned: 256 sites, k=3, zipf 0.9" `Quick test_pinned_256_sites_k3_zipf;
  ]
