(** Host speed, measured by a fixed reference kernel that the workloads
    run between their measured stretches.

    On a shared host, wall-clock speed swings by 20% and more over
    minutes, as neighbours load the memory system.  The kernel allocates
    and hashes much as the program does, so its time tracks those
    swings.  The wall-time end-to-end metrics are scaled by the kernel's
    mean time in the same run, to the speed of a host on which the kernel
    takes 1.0 ms: over the loop for the loop's metrics, and between the
    set-up reps for [setup_s].  The kernel is the benchmark's own code, so a
    change to the program changes the raw figures and leaves the scale
    alone. *)

type t

val create : unit -> t

val sample : t -> int
(** Run the kernel once, timed, after a minor collection, so that it
    starts from an empty minor heap.  Returns the kernel's time in ns.
    Callers time the call within their wall time and subtract that: the
    collection is the program's work, the kernel is not. *)

val words : t -> float
(** Minor words the kernel runs allocated, for callers that count the
    words of a whole stretch. *)

val calibrate :
  setup:t -> t -> (string * float) list -> (string * float) list * string list
(** [calibrate ~setup loop values] scales [txn_per_s] and [events_per_s]
    by [loop]'s mean kernel time over 1.0 ms and [submit_p50_us] by its
    inverse.  [setup_s] is divided by [setup]'s factor instead: samples
    taken between the set-up reps, since the host may run at another
    speed at the start of a run than over its loop.  Other values pass
    unchanged, and a host with no sample scales nothing.  Also returns
    report lines with the kernel's times and the raw values. *)
