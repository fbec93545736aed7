type budget = Outcome.budget = Seconds of float | Txns of int

(* Metrics the report prints beside the catalogue's.  They stay out of the
   JSON line: the tail latency spreads too much from run to run on a
   small shared host to be gated, and the rest exist on some workloads
   only. *)
let extra_units =
  [
    ("submit_p99_us", "us");
    ("recover_p50_ms", "ms");
    ("recover_vms", "vms");
    ("scrape_p50_ms", "ms");
    ("scrape_p90_ms", "ms");
    ("error_rate", "ratio");
  ]

let json_number v = Printf.sprintf "%.17g" v

let out_dir = Filename.concat "perfbench" "out"

let write_spans ~workload ~seed spans =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  Spans.write_chrome spans path;
  path

let print_spans spans =
  Printf.printf "spans (name, count, total s, self s, self ns each):\n";
  List.iter
    (fun (name, t) ->
      Printf.printf "  %-28s %10d %12.6f %12.6f %12.1f\n" name t.Spans.count
        (float_of_int t.Spans.total_ns /. 1e9)
        (float_of_int t.Spans.self_ns /. 1e9)
        (float_of_int t.Spans.self_ns /. float_of_int (max 1 t.Spans.count)))
    (Spans.totals spans)

let report ~workload ~seed ~budget ~traced (o : Outcome.t) =
  Printf.printf "workload %s, seed %d, %s, %s, %s build\n" workload seed
    (match budget with
    | Seconds s -> Printf.sprintf "%g s" s
    | Txns n -> Printf.sprintf "%d txns" n)
    (if traced then "traced" else "untraced")
    Build_profile.name;
  List.iter (fun line -> Printf.printf "%s\n" line) o.notes;
  List.iter (fun (name, v) -> Printf.printf "counter %s %d\n" name v) o.counters;
  let lookup name = List.assoc_opt name o.values in
  (* A transaction budget measures counters only. *)
  let timed = match budget with Seconds _ -> true | Txns _ -> false in
  let errors = ref o.errors in
  let selected =
    if traced then List.map (fun (name, unit, _) -> (name, unit, false)) Catalog.per_layer
    else List.map (fun (name, unit, _, _) -> (name, unit, true)) Catalog.end_to_end
  in
  let metrics =
    List.map
      (fun (name, unit, required) ->
        match lookup name with
        | Some v when Float.is_finite v -> (name, unit, v, true)
        | Some _ | None ->
          if required && timed then errors := (name ^ ": not measured") :: !errors;
          (name, unit, 0.0, false))
      selected
  in
  let failed = o.failed + (List.length !errors - List.length o.errors) in
  let attempted = max 1 o.attempted in
  Printf.printf "metrics:\n";
  List.iter
    (fun (name, unit, v, observed) ->
      Printf.printf "  %-40s %18.6f %s%s\n" name v unit
        (if observed then "" else "  (not observed)"))
    metrics;
  List.iter
    (fun (name, unit) ->
      match lookup name with
      | Some v -> Printf.printf "  %-40s %18.6f %s\n" name v unit
      | None -> ())
    extra_units;
  Printf.printf "  %-40s %18.6f %s\n" "error_rate"
    (float_of_int failed /. float_of_int attempted)
    "ratio";
  (match o.spans with
  | Some spans ->
    print_spans spans;
    Printf.printf "spans written to %s\n" (write_spans ~workload ~seed spans)
  | None -> ());
  List.iter (fun e -> Printf.printf "CHECK FAILED %s\n" e) (List.rev !errors);
  let correct = !errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v, _) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics));
  correct

let outcome ~workload ~seed ~budget ~traced =
  match workload with
  | "full64" -> Ok (Closed.run Closed.full64 ~seed ~budget ~traced)
  | "partial256" -> Ok (Closed.run Closed.partial256 ~seed ~budget ~traced)
  | "multi200" -> Ok (Multi_wl.run ~seed ~budget ~traced)
  | "serve16" -> Ok (Serve_wl.run ~seed ~budget ~traced)
  | w -> Error (Printf.sprintf "unknown workload %S" w)

let run ~workload ~seed ~budget ~traced =
  Result.map (report ~workload ~seed ~budget ~traced) (outcome ~workload ~seed ~budget ~traced)
