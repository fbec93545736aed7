(** Deterministic counters pinned per workload and seed.

    A short run of each workload at the default and the held-out seed
    must reproduce the counters in [perfbench/pins.txt] exactly — engine
    events, messages, committed and aborted transactions, recovery virtual
    time, the shared-WAL counts and digest, and single-domain allocation
    words (pinned per build profile) — and a traced run must give the
    same counters as an untraced one.  A change of protocol behaviour
    therefore shows as a counter change, not as a speed change. *)

val rows : unit -> string list
(** The pin rows of this build: [workload seed txns counter value]. *)

val check : string -> string list
(** Compare fresh short runs with the pins file at the given path; one
    line per difference (empty when everything matches). *)
