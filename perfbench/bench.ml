(* bench.exe: run one benchmark workload and report its metrics.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --workload NAME --seed N --txns N   (deterministic counters)
     bench.exe --benchmark-json                    (print BENCHMARK.json)
     bench.exe --pins                              (print pins.txt rows)
     bench.exe --check-pins perfbench/pins.txt     (compare with the pins)

   The last line of standard output is one JSON object: correct, attempted,
   failed and metrics (the end-to-end metrics untraced, the per-layer
   metrics traced).  The exit code is 1 when an output check fails. *)

open Raid_perfbench

let usage = "bench.exe --workload NAME --seed N (--seconds S --trace 0|1 | --txns N)"

let () =
  let workload = ref "" and seed = ref Catalog.default_seed and seconds = ref 0.0 in
  let trace = ref 0 and txns = ref 0 and print_json = ref false in
  let print_pins = ref false and check_pins = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--txns", Arg.Set_int txns, "N run exactly N transactions and print the counters");
      ("--benchmark-json", Arg.Set print_json, " print BENCHMARK.json");
      ("--pins", Arg.Set print_pins, " print the deterministic counters of the pinned short runs");
      ("--check-pins", Arg.Set_string check_pins, "FILE compare the pinned short runs with FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !print_json then print_string (Catalog.benchmark_json ())
  else if !print_pins then List.iter print_endline (Pins.rows ())
  else if !check_pins <> "" then begin
    match Pins.check !check_pins with
    | [] -> print_endline "pins: all counters match"
    | diffs ->
      List.iter print_endline diffs;
      exit 1
  end
  else begin
    let budget =
      if !txns > 0 then Outcome.Txns !txns
      else if !seconds > 0.0 then Outcome.Seconds !seconds
      else (prerr_endline usage; exit 2)
    in
    match Runner.run ~workload:!workload ~seed:!seed ~budget ~traced:(!trace = 1) with
    | Ok correct -> exit (if correct then 0 else 1)
    | Error msg -> prerr_endline msg; exit 2
  end
