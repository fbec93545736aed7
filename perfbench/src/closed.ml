module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Message = Raid_core.Message
module Metrics = Raid_core.Metrics
module Site = Raid_core.Site
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Rng = Raid_util.Rng
module Samples = Stats.Samples

type params = {
  sites : int;
  items : int;
  replication : Config.replication;
  spec : Workload.spec;
  fail_every : int;
  rss_at : int;
  by_item_check : bool;  (** see {!Checks.invariants} *)
}

let full64 =
  {
    sites = 64;
    items = 5000;
    replication = Config.Full;
    spec = Workload.Uniform { max_ops = 5; write_prob = 0.5 };
    fail_every = 200;
    rss_at = 10_000;
    by_item_check = false;
  }

let partial256 =
  {
    sites = 256;
    items = 100_000;
    replication = Config.Partial (Raid_core.Placement.spec ~factor:3 ());
    spec = Workload.Zipfian { max_ops = 5; write_prob = 0.1; theta = 0.9 };
    fail_every = 50;
    rss_at = 2000;
    by_item_check = true;
  }

type budget = Outcome.budget = Seconds of float | Txns of int

(* [setup_s] is the median of this many [Cluster.create]s, each a few
   tens of milliseconds. *)
let setup_reps = 9

let probe spans =
  let pending = ref "undeliverable" in
  {
    Engine.on_event =
      (fun ~at:_ event ~cost:_ ->
        pending :=
          match event with
          | Engine.Message { payload; _ } -> Message.kind payload
          | Engine.Send_failed _ -> "send_failed"
          | Engine.Timer _ -> "timer");
    on_advance =
      (fun ~at:_ ->
        Spans.event spans !pending ~stop:(Clock.now_ns ());
        pending := "undeliverable");
  }

(* Word-count slots, one per public call the loop makes. *)
let w_next = 0
let w_submit = 1
let w_fail = 2
let w_recover = 3

type st = {
  p : params;
  cluster : Cluster.t;
  rng : Rng.t;
  workload : Workload.t;
  errors : string list ref;
  mutable spans : Spans.t option;  (* set during traced cycles *)
  mutable down : int option;
  mutable operational : int list;
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable raised : int;
  mutable recoveries : int;
  mutable blocked : int;
  mutable fails : int;
  mutable recover_vus : int;  (* summed virtual time of successful recoveries *)
  mutable rss_mb : float option;  (* peak RSS once [p.rss_at] transactions are submitted *)
  next_ns : Samples.t;
  submit_us : Samples.t;
  fail_ms : Samples.t;
  recover_ms : Samples.t;
  recover_vms : Samples.t;
  faillock_bits : Samples.t;
  txn_rate : Samples.t;  (* per measured cycle, committed / s *)
  words : float array;  (* indexed by the w_* slots *)
}

let engine st = Cluster.engine st.cluster

let events st =
  let c = Engine.counters (engine st) in
  c.Engine.delivered + c.Engine.timer_fired

let refresh st =
  st.operational <-
    List.filter
      (fun s -> not (Site.is_waiting (Cluster.site st.cluster s)))
      (Cluster.alive_sites st.cluster)

(* Time one public call: duration into [samples] (divided by [scale]),
   allocated words into [slot], and a span when the cycle is traced.  The
   clock and word readings sit right around [f ()], so neither the span
   bookkeeping nor this wrapper is counted. *)
let timed st name ~samples ~scale ~slot f =
  let body () =
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let r = f () in
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    st.words.(slot) <- st.words.(slot) +. (w1 -. w0);
    Samples.add samples (float_of_int (t1 - t0) /. scale);
    r
  in
  match st.spans with Some spans -> Spans.call spans name body | None -> body ()

let step st =
  let coordinator = Rng.choose st.rng st.operational in
  let id = Cluster.next_txn_id st.cluster in
  let txn =
    timed st "Workload.next" ~samples:st.next_ns ~scale:1.0 ~slot:w_next (fun () ->
        Workload.next st.workload ~id)
  in
  st.submitted <- st.submitted + 1;
  match
    timed st "Cluster.submit" ~samples:st.submit_us ~scale:1e3 ~slot:w_submit (fun () ->
        Cluster.submit st.cluster ~coordinator txn)
  with
  | outcome ->
    if outcome.Metrics.committed then st.committed <- st.committed + 1
    else st.aborted <- st.aborted + 1
  | exception e ->
    st.raised <- st.raised + 1;
    Outcome.check st.errors "submit" false (Printexc.to_string e)

(* The rolling failure: recover the site failed last cycle, fail another. *)
let roll st =
  (match st.down with
  | None -> ()
  | Some site ->
    st.recoveries <- st.recoveries + 1;
    let v0 = Engine.now (engine st) in
    (match
       timed st "Cluster.recover_site" ~samples:st.recover_ms ~scale:1e6 ~slot:w_recover
         (fun () -> Cluster.recover_site st.cluster site)
     with
    | `Recovered ->
      let dv = Vtime.sub (Engine.now (engine st)) v0 in
      st.recover_vus <- st.recover_vus + Vtime.to_us dv;
      Samples.add st.recover_vms (Vtime.to_ms dv)
    | `Blocked ->
      st.blocked <- st.blocked + 1;
      Outcome.check st.errors "recover" false (Printf.sprintf "site %d blocked" site)));
  let victim = Rng.choose st.rng (Cluster.alive_sites st.cluster) in
  st.fails <- st.fails + 1;
  timed st "Cluster.fail_site" ~samples:st.fail_ms ~scale:1e6 ~slot:w_fail (fun () ->
      Cluster.fail_site st.cluster victim);
  st.down <- Some victim;
  refresh st

let config p =
  Config.make ~replication:p.replication ~num_sites:p.sites ~num_items:p.items ()

(* Totals over a stretch of cycles. *)
type window = {
  mutable wall_ns : int;
  mutable w_events : int;
  mutable w_txns : int;
  mutable cycles : int;
}

let window () = { wall_ns = 0; w_events = 0; w_txns = 0; cycles = 0 }

let per = Outcome.per

let median samples = Stats.median (Samples.to_sorted_array samples)

let run p ~seed ~budget ~traced =
  let errors = ref [] in
  let spans = Spans.create () in
  let setup_s = Samples.create () in
  (* Untraced timed runs sample the host's speed before every set-up rep
     and after every cycle. *)
  let calibrating = (match budget with Seconds _ -> true | Txns _ -> false) && not traced in
  let setup_host = Host.create () and host = Host.create () in
  (* Each rep starts from a fully collected heap, so that it does not
     pay for collecting the garbage of the reps before it. *)
  let build () =
    Gc.full_major ();
    if calibrating then ignore (Host.sample setup_host);
    let t0 = Clock.now_ns () in
    let c =
      if traced then Spans.call spans "Cluster.create" (fun () -> Cluster.create (config p))
      else Cluster.create (config p)
    in
    Samples.add setup_s (Clock.seconds_since t0);
    c
  in
  for _ = 2 to setup_reps do
    ignore (build ())
  done;
  let cluster = build () in
  let rng = Rng.create seed in
  let st =
    {
      p;
      cluster;
      rng;
      workload = Workload.create p.spec ~num_items:p.items ~rng:(Rng.split rng);
      errors;
      spans = None;
      down = None;
      operational = [];
      submitted = 0;
      committed = 0;
      aborted = 0;
      raised = 0;
      recoveries = 0;
      blocked = 0;
      fails = 0;
      recover_vus = 0;
      rss_mb = None;
      next_ns = Samples.create ();
      submit_us = Samples.create ();
      fail_ms = Samples.create ();
      recover_ms = Samples.create ();
      recover_vms = Samples.create ();
      faillock_bits = Samples.create ();
      txn_rate = Samples.create ();
      words = Array.make 4 0.0;
    }
  in
  refresh st;
  let deadline, max_txns =
    match budget with
    | Seconds s -> (Clock.now_ns () + int_of_float (s *. 1e9), max_int)
    | Txns n -> (max_int, n)
  in
  let spent () = st.submitted >= max_txns || Clock.now_ns () >= deadline in
  (* With a time budget, cycle 0 warms up and is left out of the timings
     (not of the counters). *)
  let warm_up = match budget with Seconds _ -> true | Txns _ -> false in
  let whole = window () and on = window () and off = window () in
  let start_gc = ref (Gc.quick_stat ()) and start_words = ref 0.0 and start_committed = ref 0 in
  let start_measuring () =
    List.iter Samples.clear
      [
        st.next_ns; st.submit_us; st.fail_ms; st.recover_ms; st.recover_vms; st.faillock_bits;
        st.txn_rate;
      ];
    start_gc := Gc.quick_stat ();
    start_words := Array.fold_left ( +. ) 0.0 st.words;
    start_committed := st.committed
  in
  start_measuring ();
  let cycle = ref 0 in
  while not (spent ()) do
    let tracing = traced && !cycle mod 2 = 1 in
    (* The oracle sweep behind [faillock_bits_at_recover] is the
       benchmark's own work: it stays outside the cycle's timings. *)
    if tracing && st.down <> None && Samples.length st.faillock_bits < 8 then
      Samples.add st.faillock_bits (float_of_int (Cluster.total_faillocks st.cluster));
    if tracing then begin
      Engine.set_probe (engine st) (Some (probe spans));
      st.spans <- Some spans;
      Spans.open_root spans "run"
    end;
    let t0 = Clock.now_ns () and e0 = events st and n0 = st.submitted and c0 = st.committed in
    roll st;
    let k = ref 0 in
    while !k < p.fail_every && not (spent ()) do
      step st;
      if st.submitted = p.rss_at then st.rss_mb <- Some (Clock.peak_rss_mb ());
      incr k
    done;
    let kernel_ns = if calibrating then Host.sample host else 0 in
    let t1 = Clock.now_ns () - kernel_ns in
    if tracing then begin
      Spans.close_root spans;
      st.spans <- None;
      Engine.set_probe (engine st) None
    end;
    if warm_up && !cycle = 0 then start_measuring ()
    else begin
      let secs = float_of_int (t1 - t0) /. 1e9 in
      Samples.add st.txn_rate (float_of_int (st.committed - c0) /. secs);
      List.iter
        (fun w ->
          w.wall_ns <- w.wall_ns + (t1 - t0);
          w.w_events <- w.w_events + (events st - e0);
          w.w_txns <- w.w_txns + (st.submitted - n0);
          w.cycles <- w.cycles + 1)
        [ (if tracing then on else off); whole ]
    end;
    incr cycle
  done;
  let gc = Gc.quick_stat () in
  (* output checks *)
  let check = Outcome.check errors in
  let checks = ref 0 in
  let verify name ok detail =
    incr checks;
    check name ok detail
  in
  (match Checks.invariants ~by_item:p.by_item_check st.cluster with
  | Ok () -> verify "invariants" true ""
  | Error e -> verify "invariants" false e);
  let m = Cluster.metrics st.cluster in
  verify "accounting"
    (m.Metrics.txns_committed + m.Metrics.txns_aborted = st.submitted && st.raised = 0)
    (Printf.sprintf "%d committed + %d aborted <> %d submitted" m.Metrics.txns_committed
       m.Metrics.txns_aborted st.submitted);
  (* The roots read the clock just outside the loop's [t0, t1], so they
     outlast the loop's traced wall time by a few clock reads a cycle. *)
  if traced then begin
    let wall = on.wall_ns and self = Spans.self_sum_ns spans in
    verify "self-time sum"
      (abs (self - wall) <= max (1000 * on.cycles) (wall / 1000))
      (Printf.sprintf "span self times sum to %d ns, the loop's traced wall is %d ns" self wall)
  end;
  let c = Engine.counters (engine st) in
  let counters =
    [
      ("events", c.Engine.delivered + c.Engine.timer_fired);
      ("messages", c.Engine.sent);
      ("committed", st.committed);
      ("aborted", st.aborted);
      ("recover_vus", st.recover_vus);
    ]
    @ if traced then [] else [ ("alloc_words", int_of_float (Array.fold_left ( +. ) 0.0 st.words)) ]
  in
  let committed = st.committed - !start_committed in
  let wall_s = float_of_int whole.wall_ns /. 1e9 in
  let txns = whole.w_txns in
  let words = Array.fold_left ( +. ) 0.0 st.words -. !start_words in
  let submit = Samples.to_sorted_array st.submit_us in
  let p99 = Stats.percentile submit 99.0 in
  let e2e =
    [
      ("setup_s", median setup_s);
      ("txn_per_s", float_of_int committed /. wall_s);
      ("events_per_s", float_of_int whole.w_events /. wall_s);
      ("submit_p50_us", Stats.median submit);
      ("submit_p99_us", p99.Stats.value);
      ("alloc_words_per_txn", words /. float_of_int (max 1 committed));
      ("peak_rss_mb", Option.value st.rss_mb ~default:(Clock.peak_rss_mb ()));
      ("recover_p50_ms", median st.recover_ms);
      ("recover_vms", median st.recover_vms);
    ]
  in
  let e2e, host_notes = Host.calibrate ~setup:setup_host host e2e in
  (* Event spans carry a bare kind name; public calls are [Module.fn] and
     roots are ["run"]. *)
  let is_event name = name <> "run" && not (String.contains name '.') in
  let kinds_total = List.filter (fun (name, _) -> is_event name) (Spans.totals spans) in
  let traced_txns = on.w_txns in
  let layer =
    if not traced then []
    else
      let event_count = List.fold_left (fun a (_, t) -> a + t.Spans.count) 0 kinds_total in
      let event_ns = List.fold_left (fun a (_, t) -> a + t.Spans.total_ns) 0 kinds_total in
      let mean_words slot n = st.words.(slot) /. float_of_int (max 1 n) in
      [
        ("engine.events_per_txn", per whole.w_events txns);
        ("engine.messages_per_txn", per c.Engine.sent st.submitted);
        ("engine.undeliverable_per_txn", per c.Engine.undeliverable st.submitted);
        ("engine.heap_high_water", float_of_int (Engine.heap_high_water (engine st)));
        ("engine.event_ns", per event_ns event_count);
        ("substrate.faillocks_set_per_txn", per m.Metrics.faillocks_set st.submitted);
        ("substrate.faillocks_cleared_per_txn", per m.Metrics.faillocks_cleared st.submitted);
        ("substrate.copier_requests_per_txn", per m.Metrics.copier_requests st.submitted);
        ("substrate.faillock_bits_at_recover", median st.faillock_bits);
        ("cluster.fail_site_ms", median st.fail_ms);
        ("cluster.recover_site_words", mean_words w_recover st.recoveries);
        ("cluster.submit_words", mean_words w_submit st.submitted);
        ("cluster.recover_p50_ms", median st.recover_ms);
        ("cluster.recover_vms", median st.recover_vms);
        ("workload.next_ns", median st.next_ns);
        Outcome.overhead_pct ~on_ns:on.wall_ns ~on_events:on.w_events ~off_ns:off.wall_ns
          ~off_events:off.w_events;
      ]
      @ Outcome.gc_metrics ~before:!start_gc ~after:gc ~events:whole.w_events ~txns
      @ List.concat_map
          (fun (kind, t) ->
            [
              ("site." ^ kind ^ ".events_per_txn", per t.Spans.count traced_txns);
              ("site." ^ kind ^ ".self_ns", per t.Spans.self_ns t.Spans.count);
            ])
          kinds_total
  in
  let notes =
    [
      Printf.sprintf "submit latency: %d samples, %d beyond p99" p99.Stats.samples
        p99.Stats.beyond;
      Stats.describe "txn_per_s" (Samples.to_sorted_array st.txn_rate);
      Printf.sprintf "rolling failures: %d fail_site, %d recover_site (%d blocked)" st.fails
        st.recoveries st.blocked;
      Printf.sprintf "transactions: %d submitted, %d committed, %d aborted, %d raised"
        st.submitted st.committed st.aborted st.raised;
      Printf.sprintf "knowledge loss events: %d" (Cluster.knowledge_loss_events st.cluster);
      (match st.rss_mb with
      | Some _ -> Printf.sprintf "peak_rss_mb read after %d submitted transactions" p.rss_at
      | None ->
        Printf.sprintf "peak_rss_mb read at the end: the run submitted fewer than %d transactions"
          p.rss_at);
    ]
    @ host_notes
    @
    if traced then
      [
        Printf.sprintf "traced cycles: %d (%.3f s), untraced cycles: %d (%.3f s)" on.cycles
          (float_of_int on.wall_ns /. 1e9) off.cycles (float_of_int off.wall_ns /. 1e9);
        Printf.sprintf "span self times sum to %.6f s of %.6f s traced wall (roots %.6f s)"
          (float_of_int (Spans.self_sum_ns spans) /. 1e9)
          (float_of_int on.wall_ns /. 1e9)
          (float_of_int (Spans.root_ns spans) /. 1e9);
      ]
    else []
  in
  {
    Outcome.attempted = st.submitted + st.recoveries + st.fails + !checks;
    failed = st.aborted + st.raised + st.blocked + List.length !errors;
    errors = List.rev !errors;
    values = e2e @ layer;
    counters;
    notes;
    spans = (if traced then Some spans else None);
  }
