module Multi = Raid_multi
module Shared_wal = Raid_storage.Shared_wal
module Pool = Raid_par.Pool
module Samples = Stats.Samples

let tenants = 200

(* Transactions per tenant in one timed [Raid_multi.run]. *)
let txns_per_tenant = 40

(* Repetitions of the one-transaction run behind [setup_s]; each takes
   a few tens of milliseconds. *)
let setup_reps = 11

let spec ~seed ~txns =
  Multi.spec ~tenants ~sites:8 ~items:64 ~shards:8 ~seed ~txns ~fail_every:10
    ~wal_mode:(Multi.Shared { group_size = 64 })
    ()

let domains () = max 1 (min 8 (Domain.recommended_domain_count ()))

let submitted r = Array.fold_left (fun a t -> a + t.Multi.submitted) 0 r.Multi.results

let wal_total f r = Array.fold_left (fun a (w : Shared_wal.stats) -> a + f w) 0 r.Multi.wal

(* Order-sensitive combination of the shards' page digests. *)
let wal_digest r =
  Array.fold_left (fun a (w : Shared_wal.stats) -> (a * 31) + w.Shared_wal.digest) 17 r.Multi.wal
  land max_int

let counters r ~alloc_words ~traced =
  [
    ("events", Multi.total_events r);
    ("committed", Multi.total_committed r);
    ("aborted", Multi.total_aborted r);
    ("wal_records", wal_total (fun w -> w.Shared_wal.records) r);
    ("wal_flushes", wal_total (fun w -> w.Shared_wal.flushes) r);
    ("wal_pages", wal_total (fun w -> w.Shared_wal.pages) r);
    ("wal_bytes", wal_total (fun w -> w.Shared_wal.bytes_logged) r);
    ("wal_digest", wal_digest r);
  ]
  (* a traced run's spans allocate inside the timed calls *)
  @ if traced then [] else [ ("alloc_words", alloc_words) ]

let run ~seed ~budget ~traced =
  let errors = ref [] in
  let checks = ref 0 in
  let verify name ok detail =
    incr checks;
    Outcome.check errors name ok detail
  in
  let spans = Spans.create () in
  let timed_run ?(on = traced) s =
    if on then Spans.call spans "Raid_multi.run" (fun () -> Multi.run s) else Multi.run s
  in
  let txns, seconds =
    match (budget : Outcome.budget) with
    | Seconds s -> (txns_per_tenant, Some s)
    | Txns n -> (n, None)
  in
  let run_spec = spec ~seed ~txns in
  (* Set-up happens inside [Raid_multi.run], and no public entry point
     stops before the first transaction.  So [setup_s] here is the wall
     time of a run of the same spec with one transaction per tenant: the
     tenants' construction plus 200 transactions, the failure plans and
     the final WAL flush. *)
  let setup = Samples.create () in
  (* Untraced runs sample the host's speed before every set-up rep and
     after every timed run. *)
  let setup_host = Host.create () and host = Host.create () in
  if seconds <> None then begin
    Pool.set_default_domains (domains ());
    for _ = 1 to setup_reps do
      (* each rep starts from a fully collected heap *)
      Gc.full_major ();
      if not traced then ignore (Host.sample setup_host);
      let t0 = Clock.now_ns () in
      ignore (timed_run (spec ~seed ~txns:1));
      Samples.add setup (Clock.seconds_since t0)
    done
  end;
  (* The byte-identity check: one domain, then nproc domains.  The
     one-domain run also gives the deterministic allocation count. *)
  Pool.set_default_domains 1;
  let w0 = Gc.minor_words () in
  let r1 = timed_run run_spec in
  let alloc_words = Gc.minor_words () -. w0 in
  let csv1 = Multi.csv r1 in
  Pool.set_default_domains (domains ());
  let rn = timed_run run_spec in
  verify "csv identity" (Multi.csv rn = csv1)
    (Printf.sprintf "Raid_multi.csv differs between 1 and %d domains" (domains ()));
  (* Peak RSS after a fixed amount of work: the set-up runs and the two
     check runs, before the timed loop repeats the run for as long as
     the budget lasts. *)
  let rss_mb = Clock.peak_rss_mb () in
  let per_txn_us = Samples.create () in
  let txn_rate = Samples.create () in
  let gc0 = Gc.quick_stat () in
  let wall = ref 0 and events = ref 0 and committed = ref 0 and runs = ref 0 in
  let on_wall = ref 0 and on_events = ref 0 and off_wall = ref 0 and off_events = ref 0 in
  let last = ref rn in
  (match seconds with
  | None -> ()
  | Some s ->
    let deadline = Clock.now_ns () + int_of_float (s *. 1e9) in
    while !runs = 0 || Clock.now_ns () < deadline do
      (* traced runs alternate traced and untraced repetitions *)
      let on = traced && !runs mod 2 = 0 in
      let t0 = Clock.now_ns () in
      let r = timed_run ~on run_spec in
      let kernel_ns = if traced then 0 else Host.sample host in
      let d = Clock.now_ns () - t0 - kernel_ns in
      let e = Multi.total_events r in
      wall := !wall + d;
      events := !events + e;
      committed := !committed + Multi.total_committed r;
      incr runs;
      if on then (on_wall := !on_wall + d; on_events := !on_events + e)
      else (off_wall := !off_wall + d; off_events := !off_events + e);
      Samples.add per_txn_us (float_of_int d /. 1e3 /. float_of_int (submitted r));
      Samples.add txn_rate (float_of_int (Multi.total_committed r) /. (float_of_int d /. 1e9));
      verify "csv repeat" (Multi.csv r = csv1) "a repeated run's csv differs";
      last := r
    done);
  let gc = Gc.quick_stat () in
  let r = !last in
  Array.iter
    (fun t ->
      verify "accounting"
        (t.Multi.committed + t.Multi.aborted = t.Multi.submitted && t.Multi.submitted = txns)
        (Printf.sprintf "tenant %d: %d committed + %d aborted of %d submitted" t.Multi.tenant
           t.Multi.committed t.Multi.aborted t.Multi.submitted);
      if t.Multi.tenant mod 10 = 0 then
        verify "recovery" (t.Multi.recovered = 1)
          (Printf.sprintf "tenant %d recovered %d times" t.Multi.tenant t.Multi.recovered))
    r.Multi.results;
  let sub = submitted r in
  let wall_s = float_of_int !wall /. 1e9 in
  let per_sorted = Samples.to_sorted_array per_txn_us in
  let flushes = wal_total (fun w -> w.Shared_wal.flushes) r in
  let values =
    [
      ("setup_s", Stats.median (Samples.to_sorted_array setup));
      ("txn_per_s", float_of_int !committed /. wall_s);
      ("events_per_s", float_of_int !events /. wall_s);
      ("submit_p50_us", Stats.median per_sorted);
      ("submit_p99_us", (Stats.percentile per_sorted 99.0).Stats.value);
      ("alloc_words_per_txn", alloc_words /. float_of_int (Multi.total_committed r1));
      ("peak_rss_mb", rss_mb);
    ]
    @
    if not traced then []
    else
      [
        ("engine.events_per_txn", float_of_int (Multi.total_events r) /. float_of_int sub);
        ( "storage.records_per_txn",
          float_of_int (wal_total (fun w -> w.Shared_wal.records) r) /. float_of_int sub );
        ("storage.flushes_per_txn", float_of_int flushes /. float_of_int sub);
        ( "storage.pages_per_flush",
          Outcome.per (wal_total (fun w -> w.Shared_wal.pages) r) flushes );
        ( "storage.bytes_per_txn",
          float_of_int (wal_total (fun w -> w.Shared_wal.bytes_logged) r) /. float_of_int sub );
        Outcome.overhead_pct ~on_ns:!on_wall ~on_events:!on_events ~off_ns:!off_wall
          ~off_events:!off_events;
      ]
      @ Outcome.gc_metrics ~before:gc0 ~after:gc ~events:!events ~txns:!committed
  in
  let values, host_notes = Host.calibrate ~setup:setup_host host values in
  let notes =
    [
      Printf.sprintf "%d timed runs of %d tenants x %d txns on %d domains" !runs tenants txns
        (domains ());
      Stats.describe "txn_per_s" (Samples.to_sorted_array txn_rate);
    ]
    @ host_notes
  in
  {
    Outcome.attempted = Multi.total_committed r + Multi.total_aborted r + !checks;
    failed = Multi.total_aborted r + List.length !errors;
    errors = List.rev !errors;
    values;
    counters = counters r1 ~alloc_words:(int_of_float alloc_words) ~traced;
    notes;
    spans = (if traced then Some spans else None);
  }
