module Trace = Raid_obs.Trace
module Trace_export = Raid_obs.Trace_export
module Telemetry = Raid_obs.Telemetry
module Prom = Raid_obs.Prom
module Incident = Raid_obs.Incident
module Cluster = Raid_core.Cluster
module Config = Raid_core.Config
module Workload = Raid_core.Workload
module Metrics = Raid_core.Metrics
module Message = Raid_core.Message
module Engine = Raid_net.Engine
module Vtime = Raid_net.Vtime
module Stats = Raid_util.Stats

(* A representative trajectory on the paper's Experiment-1 configuration
   (4 sites, 50 items, transactions of up to 10 operations, §2.1):
   steady load, a failure, degraded processing, on-demand recovery and a
   settle tail.  Experiment 1 proper measures isolated overheads, so it
   exposes no scenario of its own; this is the observable equivalent on
   the same configuration. *)
let exp1_scenario ?(seed = 42) () =
  let config = Config.make ~num_sites:4 ~num_items:50 () in
  Scenario.make ~seed ~config
    ~workload:(Workload.Uniform { max_ops = 10; write_prob = 0.5 })
    [
      Scenario.Run_txns 60;
      Scenario.Fail 0;
      Scenario.Run_txns 60;
      Scenario.Recover 0;
      Scenario.Run_until_recovered { site = 0; max_txns = 400 };
      Scenario.Run_txns 20;
    ]

let scenarios =
  [
    ( "exp1",
      "Experiment-1 configuration (4 sites, 50 items, txn<=10 ops): fail, degrade, recover, settle"
    );
    ("exp2", "Experiment 2: site 0 down for 100 txns, then recovers (Figure 1)");
    ("exp3-1", "Experiment 3 scenario 1: alternating two-site failures (Figure 2)");
    ("exp3-2", "Experiment 3 scenario 2: four sites fail singly (Figure 3)");
  ]

let scenario_of_name ?seed name =
  match name with
  | "exp1" -> Ok (exp1_scenario ?seed ())
  | "exp2" -> Ok (Experiment2.scenario ?seed ())
  | "exp3-1" -> Ok (Experiment3.scenario1_scenario ?seed ())
  | "exp3-2" -> Ok (Experiment3.scenario2_scenario ?seed ())
  | other ->
    Error
      (Printf.sprintf "unknown scenario %S (available: %s)" other
         (String.concat ", " (List.map fst scenarios)))

type output = {
  trace : Trace.t;
  recorder : Incident.recorder;
  registry : Telemetry.t;
  result : Runner.result;
  messages : Trace_export.message list;
  num_sites : int;
}

(* MTTRs here are virtual milliseconds-to-seconds; the buckets span the
   sub-millisecond copier refreshes up to multi-second blocked
   recoveries. *)
let recovery_phase_buckets =
  [ 0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0 ]

(* Wire the recovery observatory into a registry: one
   [raid_recovery_phase_seconds] histogram per incident phase (observed
   the moment an incident completes) and a dropped-entry counter over
   the ring collector.  Returns the sink to run the cluster with and
   the recorder for post-run timeline queries. *)
let attach_observatory registry collector =
  let histograms =
    List.map
      (fun phase ->
        ( phase,
          Telemetry.histogram registry "raid_recovery_phase_seconds"
            ~labels:[ ("phase", Incident.phase_name phase) ]
            ~buckets:recovery_phase_buckets
            ~help:"Recovery incident phase durations, by phase (virtual seconds)" ))
      Incident.all_phases
  in
  let recorder =
    Incident.recorder
      ~on_complete:(fun incident ->
        List.iter
          (fun (phase, histogram) ->
            Telemetry.observe histogram
              (Vtime.to_ms (Incident.phase_duration incident phase) /. 1000.0))
          histograms)
      ()
  in
  Telemetry.polled_counter registry "raid_trace_dropped_total"
    ~help:"Trace entries dropped by the ring collector (oldest-first)" (fun () ->
      float_of_int (Trace.dropped collector));
  (Trace.tee [ Trace.sink collector; Incident.recorder_sink recorder ], recorder)

let run ?(sample = Vtime.of_ms 100) scenario =
  let registry = Telemetry.create ~interval:sample () in
  let collector = Trace.create () in
  let obs, recorder = attach_observatory registry collector in
  let result = Runner.run ~trace:true ~obs ~telemetry:registry scenario in
  let engine = Cluster.engine result.Runner.cluster in
  (* One final point at the quiescent end time, so every series covers
     the whole run even when it ends between interval boundaries. *)
  Telemetry.sample_now registry ~at:(Engine.now engine);
  let messages =
    List.map
      (fun (e : Message.t Engine.trace_entry) ->
        {
          Trace_export.msg_at = e.Engine.trace_time;
          msg_src = e.Engine.trace_src;
          msg_dst = e.Engine.trace_dst;
          msg_label = Message.describe e.Engine.trace_payload;
          msg_delivered = (e.Engine.trace_outcome = Engine.Delivered);
        })
      (Engine.trace engine)
  in
  {
    trace = collector;
    recorder;
    registry;
    result;
    messages;
    num_sites = Cluster.num_sites result.Runner.cluster;
  }

let spans output = Raid_obs.Span.assemble (Trace.entries output.trace)
let incidents output = Incident.incidents output.recorder
let jsonl output = Trace_export.jsonl output.trace

let chrome output =
  Trace_export.chrome ~messages:output.messages ~num_sites:output.num_sites output.trace

let summary output =
  let buffer = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buffer in
  let metrics = Cluster.metrics output.result.Runner.cluster in
  Format.fprintf ppf "transactions: %d committed, %d aborted@."
    output.result.Runner.committed output.result.Runner.aborted;
  Format.fprintf ppf "trace: %d events emitted, %d dropped, %d messages@.@."
    (Trace.emitted output.trace) (Trace.dropped output.trace)
    (List.length output.messages);
  Format.fprintf ppf "events by kind:@.";
  List.iter
    (fun (kind, count) -> Format.fprintf ppf "  %-20s %6d@." kind count)
    (Trace.counts output.trace);
  Format.fprintf ppf "@.virtual latencies (ms):@.";
  List.iter
    (fun (label, samples) ->
      if samples <> [] then begin
        Format.fprintf ppf "  %-22s %a@." label Stats.pp_summary
          (Stats.summarize samples);
        if List.length samples >= 5 then
          Format.fprintf ppf "@[<v 4>    %a@]@." Stats.pp_histogram
            (Stats.histogram samples)
      end)
    (Metrics.latency_groups metrics);
  Format.pp_print_flush ppf ();
  Buffer.contents buffer

let prom output = Prom.render output.registry
let csv output = Telemetry.to_csv output.registry

let render ~format output =
  match format with
  | `Jsonl -> jsonl output
  | `Chrome -> chrome output
  | `Summary -> summary output
  | `Prom -> prom output
  | `Csv -> csv output
