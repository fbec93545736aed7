(** The [serve16] workload: {!Raid_sim.Soak}, the engine behind
    [raid serve], in the benchmark's own process — 16 sites, 500 items,
    the paper's generator, unthrottled admission ([accel 0]), telemetry,
    trace ring and incident recorder attached as [raid serve] always
    does, pumped with {!Raid_sim.Soak.tick}.

    A client on a second domain runs an open-loop schedule over loopback
    HTTP: [GET /metrics] every 100 ms, each timed from when it was due,
    and a site failed and recovered through [POST /sites/:id/fail] and
    [/recover] every 2 s.  No engine probe is installed: the cluster's
    telemetry owns the engine's probe slot, so a traced run records
    spans around public calls only. *)

val run : seed:int -> budget:Outcome.budget -> traced:bool -> Outcome.t
(** With [Txns n], runs [ceil (n / 64)] ticks (64 transactions each) with
    no client, for the deterministic counters only. *)
