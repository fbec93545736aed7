(** Run a named workload and report it. *)

val outcome :
  workload:string ->
  seed:int ->
  budget:Outcome.budget ->
  traced:bool ->
  (Outcome.t, string) result
(** Run the workload; [Error] names an unknown workload. *)

val run :
  workload:string -> seed:int -> budget:Outcome.budget -> traced:bool -> (bool, string) result
(** {!outcome}, then print the report: notes, counters, every metric by
    name with its unit, failed checks, and as the last line the JSON
    object [{correct, attempted, failed, metrics}] — the end-to-end
    metrics untraced, the per-layer metrics traced.  A traced run also
    writes its spans to [perfbench/out/].  [Ok correct]. *)
