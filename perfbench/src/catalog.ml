(* The benchmark's fixed names: workloads, seeds and metrics.  BENCHMARK.json
   at the repository root is generated from this module (bench.exe
   --benchmark-json) and a test keeps the two equal. *)

let workloads =
  [
    ( "full64",
      "64 sites, full replication, 5k items: every txn is a 2PC over 63 participants, so the \
       engine and the site 2PC handlers do the work" );
    ( "multi200",
      "200 tenants x 8 sites on one shared group-committed WAL over nproc domains: the only \
       workload with durable storage; its setup_s is a run with 1 txn per tenant" );
    ( "serve16",
      "the raid serve soak, 16 sites, unthrottled, with telemetry and a timed /metrics scraper: \
       the only workload with observation on" );
  ]

let default_seed = 1
let held_out_seed = 7

type better = Lower | Higher

let better_string = function Lower -> "lower" | Higher -> "higher"

(* name, unit, better, bound *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("txn_per_s", "txn/s", Higher, 0.25);
    ("events_per_s", "1/s", Higher, 0.25);
    ("submit_p50_us", "us", Lower, 0.25);
    ("alloc_words_per_txn", "words/txn", Lower, 0.1);
    ("peak_rss_mb", "MB", Lower, 0.25);
  ]

(* Message kinds the engine probe labels events with: the protocol's
   message kinds plus the engine's own notifications. *)
let event_kinds = Raid_core.Message.all_kinds @ [ "faillock_hint"; "send_failed"; "timer" ]

let per_layer =
  [
    ("engine.events_per_txn", "count", Lower);
    ("engine.messages_per_txn", "count", Lower);
    ("engine.undeliverable_per_txn", "count", Lower);
    ("engine.heap_high_water", "count", Lower);
    ("engine.event_ns", "ns", Lower);
  ]
  @ List.concat_map
      (fun kind ->
        [
          ("site." ^ kind ^ ".events_per_txn", "count", Lower);
          ("site." ^ kind ^ ".self_ns", "ns", Lower);
        ])
      event_kinds
  @ [
      ("substrate.faillocks_set_per_txn", "count", Lower);
      ("substrate.faillocks_cleared_per_txn", "count", Lower);
      ("substrate.copier_requests_per_txn", "count", Lower);
      ("substrate.faillock_bits_at_recover", "count", Lower);
      ("cluster.fail_site_ms", "ms", Lower);
      ("cluster.recover_site_words", "words", Lower);
      ("cluster.submit_words", "words", Lower);
      ("cluster.recover_p50_ms", "ms", Lower);
      ("cluster.recover_vms", "vms", Lower);
      ("workload.next_ns", "ns", Lower);
      ("storage.records_per_txn", "count", Lower);
      ("storage.flushes_per_txn", "count", Lower);
      ("storage.pages_per_flush", "count", Lower);
      ("storage.bytes_per_txn", "B", Lower);
      ("soak.tick_p50_ms", "ms", Lower);
      ("soak.tick_p90_ms", "ms", Lower);
      ("soak.txns_per_tick", "count", Higher);
      ("obs.render_ms", "ms", Lower);
      ("obs.scrape_bytes", "B", Lower);
      ("obs.series", "count", Lower);
      ("obs.samples_per_ktxn", "count", Lower);
      ("obs.scrape_p50_ms", "ms", Lower);
      ("obs.scrape_p90_ms", "ms", Lower);
      ("obs.scrape_late_ms", "ms", Lower);
      ("gc.minor_words_per_event", "words", Lower);
      ("gc.promoted_words_per_txn", "words", Lower);
      ("gc.major_collections_per_ktxn", "count", Lower);
      ("trace.overhead_pct", "%", Lower);
    ]

let run_seconds = 30

let benchmark_json () =
  let b = Buffer.create 8192 in
  let add = Buffer.add_string b in
  add "{\n  \"command\": [\"bash\", \"perfbench/run.sh\"],\n  \"paths\": [\"perfbench\"],\n";
  add (Printf.sprintf "  \"run_seconds\": %d,\n  \"workloads\": [\n" run_seconds);
  add
    (String.concat ",\n"
       (List.map
          (fun (name, why) -> Printf.sprintf "    {\"name\": %S, \"why\": %S}" name why)
          workloads));
  add "\n  ],\n  \"end_to_end\": [\n";
  add
    (String.concat ",\n"
       (List.map
          (fun (name, unit, better, bound) ->
            Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S, \"bound\": %g}" name
              unit (better_string better) bound)
          end_to_end));
  add "\n  ],\n  \"per_layer\": [\n";
  add
    (String.concat ",\n"
       (List.map
          (fun (name, unit, better) ->
            Printf.sprintf "    {\"name\": %S, \"unit\": %S, \"better\": %S}" name unit
              (better_string better))
          per_layer));
  add "\n  ]\n}\n";
  Buffer.contents b
