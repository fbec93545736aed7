(** Virtual time.

    The paper measures everything in milliseconds on one processor's
    clock; mini-RAID's only network-visible constant is the 9 ms cost of
    one intersite communication.  We keep virtual time as an integer
    number of microseconds so cost-model arithmetic is exact, and print
    in milliseconds like the paper. *)

type t = int
(** Microseconds.  Always non-negative in engine events. *)

val zero : t

val of_ms : int -> t
val of_ms_f : float -> t
(** Rounded to the nearest microsecond. *)

val to_us : t -> int
val to_ms : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints as milliseconds with two decimals, e.g. ["186.00 ms"]. *)
