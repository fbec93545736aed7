(** Spans recorded by the benchmark around the calls it makes into each
    layer, kept in memory and written out when the run ends.

    A span has a name, a start, a stop and the span that caused it.  Its
    self time is its duration minus the part of its interval that its
    children cover, so overlapping children are not counted twice and a
    child reaching outside its parent is clipped to it. *)

val covered : start:int -> stop:int -> (int * int) list -> int
(** Length of the union of the given [(start, stop)] intervals, clipped
    to [[start, stop]]. *)

val self_time : start:int -> stop:int -> (int * int) list -> int
(** Self time of a span over [[start, stop]] whose children cover the
    given intervals: its duration minus {!covered}.  The recorder below
    computes every span's self time with it. *)

(** {2 Recorder}

    Aggregates spans as they close, so a run of millions of engine
    events keeps only per-name totals plus the first 20,000 raw spans,
    for {!write_chrome}. *)

type t

type total = { count : int; total_ns : int; self_ns : int }

val create : unit -> t

val open_root : t -> string -> unit
(** Start a root span (a traced stretch of the benchmark loop). *)

val close_root : t -> unit
(** Close the current root; its self time is whatever its calls do not
    cover — the benchmark loop's own time. *)

val call : t -> string -> (unit -> 'a) -> 'a
(** Time [f ()] as a child of the current root (or as a root when none
    is open).  Engine events reported through {!event} while it runs
    become its children. *)

val event : t -> string -> stop:int -> unit
(** Close an event span of the given kind at [stop]: it starts where the
    previous event of the current call stopped (or where the call
    started).  Outside a call it is ignored. *)

val add_span : t -> string -> start:int -> stop:int -> unit
(** Record a finished span measured elsewhere (for example on another
    domain).  It stands outside the root tree: it counts in {!totals} but
    not in {!self_sum_ns}. *)

val totals : t -> (string * total) list
(** Per-name count, summed duration and summed self time, sorted by
    name. *)

val root_ns : t -> int
(** Summed duration of all closed roots: the traced wall time. *)

val self_sum_ns : t -> int
(** Summed self time of the roots and of every call and event under
    them.  It equals {!root_ns} only when no two children of a span
    overlap; the benchmark checks it against the wall time its own loop
    measures around each traced stretch. *)

val write_chrome : t -> string -> unit
(** Write the retained raw spans, with their self times, as Chrome
    trace-event JSON (open it in Perfetto or chrome://tracing). *)
