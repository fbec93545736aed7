(* What one workload run hands back to the reporter. *)

(* How long a run measures: wall seconds for the benchmark proper, or an
   exact transaction count for the deterministic counters. *)
type budget = Seconds of float | Txns of int

type t = {
  attempted : int;  (** operations the workload issued, output checks included *)
  failed : int;  (** failed operations and failed output checks *)
  errors : string list;  (** one line per failure, for the report *)
  values : (string * float) list;  (** metric name -> value *)
  counters : (string * int) list;  (** deterministic counters, for the pins *)
  notes : string list;  (** extra report lines *)
  spans : Spans.t option;  (** the traced run's spans, written out at exit *)
}

let check errors name ok detail = if not ok then errors := (name ^ ": " ^ detail) :: !errors

let per x n = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* The gc.* per-layer metrics over a stretch of the run. *)
let gc_metrics ~(before : Gc.stat) ~(after : Gc.stat) ~events ~txns =
  let txns = float_of_int (max 1 txns) in
  [
    ( "gc.minor_words_per_event",
      (after.Gc.minor_words -. before.Gc.minor_words) /. float_of_int (max 1 events) );
    ("gc.promoted_words_per_txn", (after.Gc.promoted_words -. before.Gc.promoted_words) /. txns);
    ( "gc.major_collections_per_ktxn",
      1000.0 *. float_of_int (after.Gc.major_collections - before.Gc.major_collections) /. txns );
  ]

(* Tracing overhead from the traced and untraced stretches of one run:
   the share of events per second that tracing costs. *)
let overhead_pct ~on_ns ~on_events ~off_ns ~off_events =
  ("trace.overhead_pct", 100.0 *. (1.0 -. (per on_events on_ns /. per off_events off_ns)))
