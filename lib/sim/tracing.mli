(** Observed scenario runs: the one pipeline behind [raid trace],
    [raid metrics], [raid explain] and [raid incidents].

    {!run} executes a named scenario with every observer attached at
    once: the protocol trace ({!Raid_obs.Trace}) in a ring collector,
    the streaming incident recorder, the network engine's message trace
    and a {!Raid_obs.Telemetry} registry sampled in virtual time.  The
    renderers below are views of that one run:

    - [`Jsonl]: one JSON object per protocol event, for ad-hoc analysis;
    - [`Chrome]: Chrome trace-event JSON (Perfetto / [chrome://tracing]),
      one track per site, 2PC phases as spans nested in their
      transaction's span, message deliveries as instants;
    - [`Summary]: a text report — event counts by kind plus
      {!Raid_util.Stats} summaries and histograms of the per-transaction
      virtual latencies by outcome and by 2PC phase;
    - [`Prom] / [`Csv]: the sampled series as Prometheus text exposition
      or long-form CSV;
    - {!spans} and {!incidents}: causal span trees and recovery
      timelines.

    Observers never perturb the run, and output is a pure function of
    (scenario, sampling interval): byte-identical across runs, hosts and
    [-j] levels (each run owns its collectors; nothing is global). *)

val scenarios : (string * string) list
(** Named scenarios accepted by {!scenario_of_name}, with one-line
    descriptions: ["exp1"], a fail/recover cycle on the paper's
    Experiment-1 configuration (4 sites, 50 items, transactions of up to
    10 operations), and the paper's experiments 2 and 3. *)

val scenario_of_name : ?seed:int -> string -> (Scenario.t, string) result

type output = {
  trace : Raid_obs.Trace.t;  (** the typed event stream of the run *)
  recorder : Raid_obs.Incident.recorder;  (** streaming recovery timelines *)
  registry : Raid_obs.Telemetry.t;
  result : Runner.result;
  messages : Raid_obs.Trace_export.message list;
      (** engine deliveries, pre-rendered for the chrome export *)
  num_sites : int;
}

val attach_observatory :
  Raid_obs.Telemetry.t -> Raid_obs.Trace.t -> Raid_obs.Trace.sink * Raid_obs.Incident.recorder
(** Register the recovery observatory on a registry: one
    [raid_recovery_phase_seconds] histogram per incident phase (fed the
    moment an incident completes) and a [raid_trace_dropped_total]
    counter polled from the given ring collector.  Returns the sink to
    run the cluster with — the collector teed with a fresh incident
    recorder — and that recorder. *)

val run : ?sample:Raid_net.Vtime.t -> Scenario.t -> output
(** Run with every observer attached; [sample] (default 100 virtual ms)
    is the registry interval, and a final sample is recorded at the
    engine's quiescent end time.  The ring keeps the default 65536
    entries, which no named scenario fills; should a run emit more, the
    oldest entries are dropped and counted — check
    {!Raid_obs.Trace.dropped} on [output.trace]. *)

val spans : output -> Raid_obs.Span.tree list
(** Causal span trees assembled from the collected entries, one per
    transaction, sorted by id. *)

val incidents : output -> Raid_obs.Incident.t list
(** The run's recovery timelines from the streaming recorder, ordered by
    start time. *)

val jsonl : output -> string
val chrome : output -> string
val summary : output -> string
val prom : output -> string
val csv : output -> string

val render :
  format:[< `Jsonl | `Chrome | `Summary | `Prom | `Csv ] -> output -> string
