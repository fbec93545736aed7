open Raid_perfbench

let close = Alcotest.float 1e-9

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let test_percentile () =
  let a = sorted (List.init 100 (fun i -> float_of_int (i + 1))) in
  let p = Stats.percentile a 99.0 in
  Alcotest.(check close) "p99 of 1..100" 99.0 p.Stats.value;
  Alcotest.(check int) "one sample beyond p99" 1 p.Stats.beyond;
  Alcotest.(check int) "sample count" 100 p.Stats.samples;
  let p90 = Stats.percentile a 90.0 in
  Alcotest.(check int) "ten beyond p90" 10 p90.Stats.beyond;
  let small = Stats.percentile (sorted [ 5.0; 1.0; 3.0 ]) 99.0 in
  Alcotest.(check close) "p99 of three samples is the largest" 5.0 small.Stats.value;
  Alcotest.(check int) "nothing beyond" 0 small.Stats.beyond;
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 50.0).Stats.value)

(* Expected values from Python's statistics.quantiles(data, n=4) and
   statistics.median. *)
let test_quartiles () =
  let q l = Stats.quartiles (sorted l) in
  let check name (e1, e2, e3) l =
    let q1, q2, q3 = q l in
    Alcotest.(check close) (name ^ " q1") e1 q1;
    Alcotest.(check close) (name ^ " q2") e2 q2;
    Alcotest.(check close) (name ^ " q3") e3 q3
  in
  check "1..10" (2.75, 5.5, 8.25) (List.init 10 (fun i -> float_of_int (i + 1)));
  check "eight" (1.25, 3.5, 5.75) [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ];
  check "two" (1.25, 5.0, 8.75) [ 2.5; 7.5 ];
  check "three" (10.0, 20.0, 30.0) [ 10.; 20.; 30. ];
  Alcotest.(check close) "median even" 3.5
    (Stats.median (sorted [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ]));
  Alcotest.(check close) "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (sorted (List.init 10 (fun i -> float_of_int (i + 1)))))

let test_covered () =
  Alcotest.(check int) "disjoint" 30 (Spans.covered ~start:0 ~stop:100 [ (0, 10); (50, 70) ]);
  Alcotest.(check int) "overlapping counted once" 40
    (Spans.covered ~start:0 ~stop:100 [ (10, 30); (20, 40); (35, 50) ]);
  Alcotest.(check int) "nested counted once" 20
    (Spans.covered ~start:0 ~stop:100 [ (10, 30); (15, 20) ]);
  Alcotest.(check int) "clipped to the parent" 7
    (Spans.covered ~start:10 ~stop:20 [ (0, 12); (15, 40) ]);
  Alcotest.(check int) "none" 0 (Spans.covered ~start:0 ~stop:10 [])

let test_self_times () =
  (* root [0,100]: children a [10,40] and b [30,60] overlap; a has a
     nested child c [15,25] and a child d [35,50] that leaves a. *)
  let root = (0, 100) and a = (10, 40) and b = (30, 60) and c = (15, 25) and d = (35, 50) in
  let self (start, stop) children = Spans.self_time ~start ~stop children in
  Alcotest.(check (list (pair string int)))
    "self times"
    [ ("root", 50); ("a", 15); ("b", 30); ("c", 10); ("d", 15) ]
    [
      ("root", self root [ a; b ]);
      ("a", self a [ c; d ]);
      ("b", self b []);
      ("c", self c []);
      ("d", self d []);
    ]

let find t name =
  Option.value (List.assoc_opt name (Spans.totals t))
    ~default:{ Spans.count = 0; total_ns = 0; self_ns = 0 }

let test_recorder () =
  let t = Spans.create () in
  Spans.open_root t "run";
  let now = Clock.now_ns in
  Spans.call t "call" (fun () ->
      Spans.event t "x" ~stop:(now ());
      Spans.event t "y" ~stop:(now ());
      Spans.event t "x" ~stop:(now ()));
  Spans.call t "other" ignore;
  Spans.close_root t;
  Spans.event t "outside a call" ~stop:(now ());
  Alcotest.(check int) "self times add up to the root" (Spans.root_ns t) (Spans.self_sum_ns t);
  Alcotest.(check int) "events by kind" 2 (find t "x").Spans.count;
  Alcotest.(check int) "an event outside a call is dropped" 0
    (find t "outside a call").Spans.count;
  let call = find t "call" and x = find t "x" and y = find t "y" in
  Alcotest.(check int) "call self is its duration minus its events" call.Spans.self_ns
    (call.Spans.total_ns - x.Spans.total_ns - y.Spans.total_ns)

let test_host_calibration () =
  let values =
    [ ("txn_per_s", 100.0); ("submit_p50_us", 2.0); ("setup_s", 3.0); ("peak_rss_mb", 5.0) ]
  in
  let setup = Host.create () and loop = Host.create () in
  let unscaled, notes = Host.calibrate ~setup loop values in
  Alcotest.(check (list (pair string close))) "no sample, no scaling" values unscaled;
  Alcotest.(check int) "no sample, no notes" 0 (List.length notes);
  for _ = 1 to 3 do
    ignore (Host.sample loop)
  done;
  let scaled, _ = Host.calibrate ~setup loop values in
  let get name = List.assoc name scaled in
  Alcotest.(check bool) "a rate and a time scale by inverse factors" true
    (Float.abs ((get "txn_per_s" *. get "submit_p50_us") -. 200.0) < 1e-6);
  Alcotest.(check close) "setup_s follows the set-up samples only" 3.0 (get "setup_s");
  Alcotest.(check close) "other metrics unchanged" 5.0 (get "peak_rss_mb");
  Alcotest.(check bool) "kernel allocation counted" true (Host.words loop > 0.0)

let test_pins () =
  match Pins.check "../pins.txt" with
  | [] -> ()
  | diffs -> Alcotest.fail (String.concat "\n" diffs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_benchmark_json () =
  Alcotest.(check string) "BENCHMARK.json matches the catalogue" (Catalog.benchmark_json ())
    (read_file "../../BENCHMARK.json")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile with samples beyond" `Quick test_percentile;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "covered length of intervals" `Quick test_covered;
          Alcotest.test_case "self time of nested and overlapping spans" `Quick test_self_times;
          Alcotest.test_case "recorder self times add up" `Quick test_recorder;
        ] );
      ("host", [ Alcotest.test_case "calibration scales wall-time metrics" `Quick test_host_calibration ]);
      ( "counters",
        [
          Alcotest.test_case "short runs reproduce the pins, traced or not" `Slow test_pins;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
