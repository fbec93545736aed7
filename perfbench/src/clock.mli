(** Host clocks and process counters, read from outside the program. *)

val now_ns : unit -> int
(** Monotonic clock in nanoseconds (an arbitrary origin).  Allocates
    nothing. *)

val seconds_since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)

val peak_rss_mb : unit -> float
(** Peak resident set size of this process in MiB ([nan] when
    [/proc/self/status] is unreadable). *)
