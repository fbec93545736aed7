(** Build provenance as a metric.

    The live-operations surface and [raid metrics] export the git SHA
    of the running build as a Prometheus [raid_build_info] gauge —
    the conventional constant-1 metric whose labels carry the version
    and revision, so a scrape can always answer "which build is this?".

    The revision is resolved once per process (a [git rev-parse] child,
    memoised); outside a git checkout it is ["unknown"]. *)

val version : string
(** The release version, single source of truth for the CLI's
    [--version] too. *)

val revision : unit -> string
(** Full git SHA of HEAD, or ["unknown"] when git or the checkout is
    unavailable. *)

val register : Telemetry.t -> unit
(** Register [raid_build_info] (constant gauge 1, labels [revision] and
    [version]) into the registry, so it rides along in every
    {!Prom.render} of it. *)

val prom_block : unit -> string
(** The same metric as a standalone Prometheus text block
    ([# HELP]/[# TYPE] plus the sample line) — appended to exports whose
    registry content must stay byte-stable under golden checks. *)
