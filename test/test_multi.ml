(* Tests for the multi-tenant engine: the determinism contract (results
   and CSV are a pure function of the spec — independent of the domain
   count and of the WAL mode), the shared-WAL batching win, tenant crash
   isolation, exact pins on a 200-tenant run, and the shared log's
   accounting. *)

module Multi = Raid_multi
module Shared_wal = Raid_storage.Shared_wal
module Pool = Raid_par.Pool
module Trace = Raid_obs.Trace

let small_spec ?(wal_mode = Multi.Shared { group_size = 16 }) ?(fail_every = 6) () =
  Multi.spec ~tenants:24 ~shards:4 ~sites:5 ~items:32 ~txns:12 ~batch:4 ~seed:7 ~wal_mode
    ~fail_every ()

let tenant_fields (r : Multi.tenant_result) =
  (r.Multi.tenant, r.Multi.shard, r.Multi.submitted, r.Multi.committed, r.Multi.aborted,
   r.Multi.events, r.Multi.recovered)

let flushes r =
  Array.fold_left (fun a (w : Shared_wal.stats) -> a + w.Shared_wal.flushes) 0 r.Multi.wal

let with_domains n f =
  let before = Pool.default_domains () in
  Pool.set_default_domains n;
  Fun.protect ~finally:(fun () -> Pool.set_default_domains before) f

(* The headline contract: per-tenant results and the full CSV are
   byte-identical whether the shards run sequentially or on 4 domains. *)
let test_jobs_identity () =
  let spec = small_spec () in
  let seq = with_domains 1 (fun () -> Multi.run spec) in
  let par = with_domains 4 (fun () -> Multi.run spec) in
  Alcotest.(check int) "tenant count" 24 (Array.length seq.Multi.results);
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d identical" i)
        true
        (tenant_fields r = tenant_fields par.Multi.results.(i)))
    seq.Multi.results;
  Alcotest.(check string) "csv byte-identical" (Multi.csv seq) (Multi.csv par)

(* WAL mode is a host-side cost model: switching it must not move a
   single protocol outcome, only the flush accounting. *)
let test_wal_mode_invariance () =
  let shared = Multi.run (small_spec ~wal_mode:(Multi.Shared { group_size = 16 }) ()) in
  let per_tenant = Multi.run (small_spec ~wal_mode:Multi.Per_tenant ()) in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d invariant" i)
        true
        (tenant_fields r = tenant_fields per_tenant.Multi.results.(i)))
    shared.Multi.results;
  let records r =
    Array.fold_left (fun a (w : Shared_wal.stats) -> a + w.Shared_wal.records) 0 r.Multi.wal
  in
  Alcotest.(check int) "same records either way" (records shared) (records per_tenant);
  Alcotest.(check bool)
    (Printf.sprintf "group commit batches: %d shared < %d per-tenant flushes" (flushes shared)
       (flushes per_tenant))
    true
    (flushes shared < flushes per_tenant)

(* Same spec, same seed: rerunning is bit-stable (no hidden global
   state leaks between runs). *)
let test_rerun_stable () =
  let spec = small_spec () in
  Alcotest.(check string) "two runs, one CSV" (Multi.csv (Multi.run spec))
    (Multi.csv (Multi.run spec))

(* A tenant's crashes are invisible to every other tenant: the protocol
   trace of a non-crashing tenant is event-for-event identical whether
   its neighbors crash or not. *)
let test_crash_isolation () =
  let collect fail_every =
    let collectors = Hashtbl.create 24 in
    let make_sink tenant =
      let c = Trace.create ~capacity:100_000 () in
      Hashtbl.replace collectors tenant c;
      Some (Trace.sink c)
    in
    (* Sequentially: the collectors table is mutated from make_sink. *)
    with_domains 1 (fun () -> ignore (Multi.run ~make_sink (small_spec ~fail_every ())));
    collectors
  in
  let calm = collect 0 in
  let stormy = collect 6 in
  let perturbed = ref 0 in
  for tenant = 0 to 23 do
    let entries c = Trace.entries (Hashtbl.find c tenant) in
    if tenant mod 6 = 0 then begin
      (* Sanity: the failure plan really did change these streams. *)
      if entries calm <> entries stormy then incr perturbed
    end
    else
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d trace unperturbed" tenant)
        true
        (entries calm = entries stormy)
  done;
  Alcotest.(check int) "crashing tenants did diverge" 4 !perturbed

let test_spec_validation () =
  let invalid msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  invalid "Multi.spec: non-positive tenants" (fun () -> ignore (Multi.spec ~tenants:0 ()));
  invalid "Multi.spec: need at least 2 sites per tenant" (fun () ->
      ignore (Multi.spec ~tenants:1 ~sites:1 ()));
  invalid "Multi.spec: non-positive group_size" (fun () ->
      ignore (Multi.spec ~tenants:1 ~wal_mode:(Multi.Shared { group_size = 0 }) ()))

(* Exact pins on a 200-tenant population (8 sites, 64 items, 30 txns,
   8 shards, a failure in every 10th tenant) in both WAL modes: protocol
   counts agree across modes, and only the flush count tells them apart. *)
let test_pinned_200_tenants () =
  let check ~wal_mode ~label ~expected_flushes =
    let result =
      Multi.run
        (Multi.spec ~tenants:200 ~sites:8 ~items:64 ~txns:30 ~shards:8 ~fail_every:10 ~wal_mode
           ())
    in
    Alcotest.(check int) (label ^ ": events") 173565 (Multi.total_events result);
    Alcotest.(check int) (label ^ ": committed") 6000 (Multi.total_committed result);
    Alcotest.(check int) (label ^ ": wal flushes") expected_flushes (flushes result)
  in
  check ~wal_mode:(Multi.Shared { group_size = 64 }) ~label:"shared/64" ~expected_flushes:2425;
  check ~wal_mode:Multi.Per_tenant ~label:"per-tenant" ~expected_flushes:154967

(* {2 Shared_wal accounting} *)

let test_shared_wal_grouping () =
  let log = Shared_wal.create ~group_size:4 () in
  let h = Shared_wal.attach log ~tenant:3 ~site:1 in
  for _ = 1 to 10 do
    Shared_wal.record h Shared_wal.Redo ~size:32
  done;
  (* 10 records with group size 4: auto-flush at 4 and 8, two pending. *)
  let s = Shared_wal.stats log in
  Alcotest.(check int) "records" 10 s.Shared_wal.records;
  Alcotest.(check int) "auto flushes" 2 s.Shared_wal.flushes;
  Shared_wal.flush log;
  let s = Shared_wal.stats log in
  Alcotest.(check int) "final flush" 3 s.Shared_wal.flushes;
  Alcotest.(check bool) "pages padded" true (s.Shared_wal.pages >= 3);
  (* Flushing an empty log is a no-op, not an empty page. *)
  Shared_wal.flush log;
  Alcotest.(check int) "idempotent flush" 3 (Shared_wal.stats log).Shared_wal.flushes

let test_shared_wal_digest () =
  let write_stream ~tenant =
    let log = Shared_wal.create ~group_size:8 () in
    let h = Shared_wal.attach log ~tenant ~site:0 in
    Shared_wal.record h Shared_wal.Redo ~size:24;
    Shared_wal.record h Shared_wal.Prepare ~size:48;
    Shared_wal.flush log;
    (Shared_wal.stats log).Shared_wal.digest
  in
  Alcotest.(check bool) "same stream, same digest" true
    (write_stream ~tenant:1 = write_stream ~tenant:1);
  Alcotest.(check bool) "tenant id is part of the record" true
    (write_stream ~tenant:1 <> write_stream ~tenant:2)

let suite =
  [
    Alcotest.test_case "results and csv identical at -j1 and -j4" `Quick test_jobs_identity;
    Alcotest.test_case "wal mode never moves protocol outcomes" `Quick test_wal_mode_invariance;
    Alcotest.test_case "rerun is bit-stable" `Quick test_rerun_stable;
    Alcotest.test_case "crashing tenants never perturb neighbors" `Quick test_crash_isolation;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "shared wal: group commit accounting" `Quick test_shared_wal_grouping;
    Alcotest.test_case "shared wal: digest covers tenant stream" `Quick test_shared_wal_digest;
    Alcotest.test_case "pinned: 200 tenants, both wal modes" `Slow test_pinned_200_tenants;
  ]
