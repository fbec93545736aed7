(** Summary statistics over timing samples.

    The benchmark reports a timing as its median plus the highest
    percentile that still has samples beyond it, with the sample count,
    and judges run-to-run spread by the quartiles Python's
    [statistics.quantiles(values, n=4)] gives (its default "exclusive"
    method), so its own numbers and an outside check agree. *)

(** A growable buffer of float samples; adding one allocates nothing
    except when the buffer doubles. *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val length : t -> int
  val clear : t -> unit
  val to_sorted_array : t -> float array
end

type percentile = {
  value : float;  (** the nearest-rank percentile; [nan] without samples *)
  beyond : int;  (** samples strictly after it in sorted order *)
  samples : int;
}

val percentile : float array -> float -> percentile
(** [percentile sorted p] for [p] in (0, 100], by nearest rank: the
    smallest sample with at least [p]% of the samples at or below it.
    [sorted] must be in increasing order. *)

val median : float array -> float
(** Median of a sorted array (mean of the middle two for an even count;
    [nan] when empty). *)

val quartiles : float array -> float * float * float
(** First quartile, median and third quartile of a sorted array, by
    Python's exclusive method.  With one sample all three are that
    sample.  @raise Invalid_argument when empty. *)

val spread : float array -> float
(** Distance between the first and third quartile as a share of the
    median ([nan] when the median is zero). *)

val mean : float array -> float

val describe : string -> float array -> string
(** ["NAME over N windows: q1 A, median B, q3 C (spread S)"] for a sorted
    array of per-window values, for the report. *)
