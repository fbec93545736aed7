module Soak = Raid_sim.Soak
module Cluster = Raid_core.Cluster
module Metrics = Raid_core.Metrics
module Engine = Raid_net.Engine
module Telemetry = Raid_obs.Telemetry
module Prom = Raid_obs.Prom
module Rng = Raid_util.Rng
module Samples = Stats.Samples

let sites = 16
let scrape_every_s = 0.1
let fail_every_s = 2.0
let traced_block_s = 1.0

(* [setup_s] is the median of this many [Soak.create]s.  One takes about
   2 ms, so a few only would read the host's noise. *)
let setup_reps = 25

(* Untraced runs sample the host's speed before every set-up rep, and
   every [host_every] ticks, about eight times a second. *)
let host_every = 32

(* [peak_rss_mb] is read once this many transactions are admitted.  The
   soak keeps every outcome, so the peak grows with the transactions a
   run gets through; a fixed count keeps the metric off throughput. *)
let rss_at = 100_000

type action = Scrape | Fail of int | Recover of int

let action_name = function Scrape -> "scrape" | Fail _ -> "POST fail" | Recover _ -> "POST recover"

(* The client's open-loop schedule: a scrape every [scrape_every_s], and a
   site failed at 1 s past every [fail_every_s] boundary and recovered
   one second later. *)
let schedule ~seed ~seconds =
  let rng = Rng.create (Rng.mix (seed + 0x5e7e)) in
  let scrapes =
    List.init (int_of_float (seconds /. scrape_every_s)) (fun i ->
        (float_of_int i *. scrape_every_s, Scrape))
  in
  let cycles = int_of_float ((seconds -. 1.5) /. fail_every_s) + 1 in
  let faults =
    List.concat
      (List.init (max 0 cycles) (fun k ->
           let site = Rng.int rng sites in
           let at = 1.0 +. (float_of_int k *. fail_every_s) in
           [ (at, Fail site); (at +. 0.95, Recover site) ]))
  in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (scrapes @ faults)

type record = {
  action : action;
  due : int;  (* ns *)
  start : int;
  stop : int;
  result : (Http_client.response, string) result;
}

let client ~port ~t0 plan =
  List.map
    (fun (at, action) ->
      let due = t0 + int_of_float (at *. 1e9) in
      let wait = due - Clock.now_ns () in
      if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
      let start = Clock.now_ns () in
      let result =
        match action with
        | Scrape -> Http_client.request ~port ~meth:"GET" "/metrics"
        | Fail s -> Http_client.request ~port ~meth:"POST" (Printf.sprintf "/sites/%d/fail" s)
        | Recover s ->
          Http_client.request ~port ~meth:"POST" (Printf.sprintf "/sites/%d/recover" s)
      in
      { action; due; start; stop = Clock.now_ns (); result })
    plan

(* [raid serve --accel 0 --sample 10000]: unthrottled, virtual time runs
   about a thousand times faster than the wall clock, so the default 100
   virtual-ms sampling would record ~1.7 samples of every series per
   transaction and grow the heap by gigabytes within a run. *)
let sample = Raid_net.Vtime.of_ms 10_000

let config ~seed = Soak.make_config ~sites ~items:500 ~accel:0.0 ~sample ~seed ~port:0 ()

let events soak =
  let c = Engine.counters (Cluster.engine (Soak.cluster soak)) in
  c.Engine.delivered + c.Engine.timer_fired

let ms ns = float_of_int ns /. 1e6

let counters soak (s : Soak.summary) =
  [
    ("events", s.Soak.events);
    ("messages", (Engine.counters (Cluster.engine (Soak.cluster soak))).Engine.sent);
    ("committed", s.Soak.committed);
    ("aborted", s.Soak.aborted);
  ]

(* A transaction budget runs whole admission batches with no client: the
   counters of [n] transactions, for the pins. *)
let run_ticks ~seed ~traced n =
  let spans = Spans.create () in
  let soak = Soak.create (config ~seed) in
  let w0 = Gc.minor_words () in
  for _ = 1 to (n + 63) / 64 do
    if traced then Spans.call spans "Soak.tick" (fun () -> Soak.tick ~timeout:0.0 soak)
    else Soak.tick ~timeout:0.0 soak
  done;
  let alloc_words = int_of_float (Gc.minor_words () -. w0) in
  let final = Soak.shutdown soak in
  let errors = ref [] in
  (match Raid_core.Invariant.all (Soak.cluster soak) with
  | Ok () -> ()
  | Error e -> Outcome.check errors "invariants" false e);
  {
    Outcome.attempted = final.Soak.submitted + 1;
    failed = final.Soak.aborted + List.length !errors;
    errors = !errors;
    values = [];
    (* a traced run's spans allocate between the ticks *)
    counters = (counters soak final @ if traced then [] else [ ("alloc_words", alloc_words) ]);
    notes = [];
    spans = (if traced then Some spans else None);
  }

let run_timed ~seed ~seconds ~traced =
  let errors = ref [] and checks = ref 0 in
  let verify name ok detail =
    incr checks;
    Outcome.check errors name ok detail
  in
  let spans = Spans.create () in
  let setup = Samples.create () in
  let setup_host = Host.create () in
  (* As for [Cluster.create] in {!Closed}: each rep starts from a fully
     collected heap. *)
  let create () =
    Gc.full_major ();
    if not traced then ignore (Host.sample setup_host);
    let t0 = Clock.now_ns () in
    let soak =
      if traced then Spans.call spans "Soak.create" (fun () -> Soak.create (config ~seed))
      else Soak.create (config ~seed)
    in
    Samples.add setup (Clock.seconds_since t0);
    soak
  in
  for _ = 2 to setup_reps do
    ignore (Soak.shutdown (create ()))
  done;
  let soak = create () in
  let plan = schedule ~seed ~seconds in
  let t0 = Clock.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let client_done = Atomic.make false in
  let port = Soak.port soak in
  let client_domain =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set client_done true) (fun () ->
            client ~port ~t0 plan))
  in
  let tick_ms = Samples.create () and per_txn_us = Samples.create () in
  let txns_per_tick = Samples.create () and render_ms = Samples.create () in
  let txn_rate = Samples.create () in
  let s0 = Soak.summary soak in
  let e0 = events soak and w0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  let samples0 = Telemetry.samples_taken (Soak.registry soak) in
  let ticks = ref 0 and rss_mb = ref None in
  let on_wall = ref 0 and on_events = ref 0 and off_wall = ref 0 and off_events = ref 0 in
  let block = ref 0 in
  let host = Host.create () and paused = ref 0 in
  let measuring () = Clock.now_ns () < deadline in
  while measuring () do
    let tracing = traced && !block mod 2 = 1 in
    let b0 = Clock.now_ns () and be0 = events soak and bc0 = (Soak.summary soak).Soak.committed in
    let paused0 = !paused in
    let block_end = min deadline (b0 + int_of_float (traced_block_s *. 1e9)) in
    if tracing then Spans.open_root spans "run";
    while Clock.now_ns () < block_end do
      let before = (Soak.summary soak).Soak.submitted in
      let a = Clock.now_ns () in
      (if tracing then Spans.call spans "Soak.tick" (fun () -> Soak.tick ~timeout:0.0 soak)
       else Soak.tick ~timeout:0.0 soak);
      let d = Clock.now_ns () - a in
      let admitted = (Soak.summary soak).Soak.submitted - before in
      if !rss_mb = None && before + admitted >= rss_at then rss_mb := Some (Clock.peak_rss_mb ());
      incr ticks;
      Samples.add tick_ms (ms d);
      Samples.add txns_per_tick (float_of_int admitted);
      if admitted > 0 then Samples.add per_txn_us (float_of_int d /. 1e3 /. float_of_int admitted);
      if (not traced) && !ticks mod host_every = 0 then paused := !paused + Host.sample host
    done;
    if tracing then begin
      let a = Clock.now_ns () in
      ignore (Spans.call spans "Prom.render" (fun () -> Prom.render (Soak.registry soak)));
      Samples.add render_ms (ms (Clock.now_ns () - a));
      Spans.close_root spans
    end;
    let bw = Clock.now_ns () - b0 - (!paused - paused0) and be = events soak - be0 in
    let secs = float_of_int bw /. 1e9 in
    Samples.add txn_rate (float_of_int ((Soak.summary soak).Soak.committed - bc0) /. secs);
    if tracing then (on_wall := !on_wall + bw; on_events := !on_events + be)
    else (off_wall := !off_wall + bw; off_events := !off_events + be);
    incr block
  done;
  let wall_s = Clock.seconds_since t0 -. (float_of_int !paused /. 1e9) in
  let s1 = Soak.summary soak in
  let words = Gc.minor_words () -. w0 -. Host.words host and gc = Gc.quick_stat () in
  let samples_taken = Telemetry.samples_taken (Soak.registry soak) - samples0 in
  let window_events = events soak - e0 in
  (* Keep serving until the client has had its last answer. *)
  while not (Atomic.get client_done) do
    Soak.tick ~timeout:0.01 soak
  done;
  let records = Domain.join client_domain in
  let final = Soak.shutdown soak in
  (* output checks *)
  let scrape_ms = Samples.create () and late_ms = Samples.create () in
  let recover_ms = Samples.create () and scrape_bytes = Samples.create () in
  let series = ref 0 in
  List.iter
    (fun r ->
      if traced then Spans.add_span spans (action_name r.action) ~start:r.start ~stop:r.stop;
      Samples.add late_ms (ms (r.start - r.due));
      match r.result with
      | Error e -> verify (action_name r.action) false e
      | Ok { Http_client.status; body } -> (
        verify (action_name r.action) (status = 200) (Printf.sprintf "HTTP %d" status);
        match r.action with
        | Scrape ->
          Samples.add scrape_ms (ms (r.stop - r.due));
          Samples.add scrape_bytes (float_of_int (String.length body));
          (match Http_client.prometheus_samples body with
          | Ok n when n > 0 -> series := n
          | Ok _ -> verify "scrape body" false "no samples"
          | Error e -> verify "scrape body" false e)
        | Recover _ -> Samples.add recover_ms (ms (r.stop - r.due))
        | Fail _ -> ()))
    records;
  let cluster = Soak.cluster soak in
  (match Raid_core.Invariant.all cluster with
  | Ok () -> verify "invariants" true ""
  | Error e -> verify "invariants" false e);
  let m = Cluster.metrics cluster in
  verify "accounting"
    (final.Soak.committed + final.Soak.aborted = final.Soak.submitted
    && m.Metrics.txns_committed + m.Metrics.txns_aborted = final.Soak.submitted)
    (Printf.sprintf "%d committed + %d aborted <> %d submitted" final.Soak.committed
       final.Soak.aborted final.Soak.submitted);
  let committed = s1.Soak.committed - s0.Soak.committed in
  let submitted = s1.Soak.submitted - s0.Soak.submitted in
  let sorted = Samples.to_sorted_array in
  let med s = Stats.median (sorted s) in
  let pct s p = (Stats.percentile (sorted s) p).Stats.value in
  let per_txn = sorted per_txn_us in
  let c = Engine.counters (Cluster.engine cluster) in
  let per_total x = Outcome.per x final.Soak.submitted in
  let kind_counts =
    List.filter_map
      (fun kind ->
        Telemetry.find (Soak.registry soak) "raid_engine_messages_total" ~labels:[ ("kind", kind) ]
        |> Option.map (fun (v : Telemetry.view) ->
               ( "site." ^ kind ^ ".events_per_txn",
                 v.Telemetry.v_value /. float_of_int (max 1 final.Soak.submitted) )))
      Catalog.event_kinds
  in
  let values =
    [
      ("setup_s", med setup);
      ("txn_per_s", float_of_int committed /. wall_s);
      ("events_per_s", float_of_int window_events /. wall_s);
      ("submit_p50_us", Stats.median per_txn);
      ("submit_p99_us", (Stats.percentile per_txn 99.0).Stats.value);
      ("alloc_words_per_txn", words /. float_of_int (max 1 committed));
      ("peak_rss_mb", Option.value !rss_mb ~default:(Clock.peak_rss_mb ()));
      ("scrape_p50_ms", med scrape_ms);
      ("scrape_p90_ms", pct scrape_ms 90.0);
      ("recover_p50_ms", med recover_ms);
    ]
    @
    if not traced then []
    else
      [
        ("engine.events_per_txn", Outcome.per window_events submitted);
        ("engine.messages_per_txn", per_total c.Engine.sent);
        ("engine.undeliverable_per_txn", per_total c.Engine.undeliverable);
        ("engine.heap_high_water", float_of_int (Engine.heap_high_water (Cluster.engine cluster)));
        ("substrate.faillocks_set_per_txn", per_total m.Metrics.faillocks_set);
        ("substrate.faillocks_cleared_per_txn", per_total m.Metrics.faillocks_cleared);
        ("substrate.copier_requests_per_txn", per_total m.Metrics.copier_requests);
        ("soak.tick_p50_ms", med tick_ms);
        ("soak.tick_p90_ms", pct tick_ms 90.0);
        ("soak.txns_per_tick", Stats.mean (sorted txns_per_tick));
        ("obs.render_ms", med render_ms);
        ("obs.scrape_bytes", med scrape_bytes);
        ("obs.series", float_of_int !series);
        ("obs.samples_per_ktxn", 1000.0 *. Outcome.per samples_taken submitted);
        ("obs.scrape_p50_ms", med scrape_ms);
        ("obs.scrape_p90_ms", pct scrape_ms 90.0);
        ("obs.scrape_late_ms", pct late_ms 90.0);
        ("cluster.recover_p50_ms", med recover_ms);
        Outcome.overhead_pct ~on_ns:!on_wall ~on_events:!on_events ~off_ns:!off_wall
          ~off_events:!off_events;
      ]
      @ Outcome.gc_metrics ~before:gc0 ~after:gc ~events:window_events ~txns:committed
      @ kind_counts
  in
  let values, host_notes = Host.calibrate ~setup:setup_host host values in
  let late = sorted late_ms in
  let scrapes = sorted scrape_ms in
  let notes =
    [
      Stats.describe "txn_per_s" (sorted txn_rate);
      Printf.sprintf "%d ticks, %d transactions admitted (%d committed, %d aborted)" !ticks
        final.Soak.submitted final.Soak.committed final.Soak.aborted;
      Printf.sprintf
        "client: %d requests, %d scrapes (%d beyond p90); generator lateness p50 %.3f ms, max \
         %.3f ms"
        (List.length records) (Array.length scrapes)
        (Stats.percentile scrapes 90.0).Stats.beyond (Stats.median late)
        (if Array.length late = 0 then 0.0 else late.(Array.length late - 1));
      (match !rss_mb with
      | Some _ -> Printf.sprintf "peak_rss_mb read after %d admitted transactions" rss_at
      | None ->
        Printf.sprintf "peak_rss_mb read at the end: the run admitted fewer than %d transactions"
          rss_at);
    ]
    @ host_notes
  in
  {
    Outcome.attempted = final.Soak.submitted + List.length records + !checks;
    failed = final.Soak.aborted + List.length !errors;
    errors = List.rev !errors;
    values;
    counters = counters soak final;
    notes;
    spans = (if traced then Some spans else None);
  }

let run ~seed ~budget ~traced =
  match (budget : Outcome.budget) with
  | Txns n -> run_ticks ~seed ~traced n
  | Seconds seconds -> run_timed ~seed ~seconds ~traced
