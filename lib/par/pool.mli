(** Deterministic fork-join parallelism over OCaml 5 domains.

    Every headline artifact of this repository (the experiment figures,
    the ablation grid, the multi-seed and cluster-size sweeps) is a batch
    of fully independent simulations: each run is a pure function of its
    seed and configuration, sharing no mutable state with its siblings.
    {!map} exploits that by fanning the batch out over a fixed-size pool
    of worker domains while keeping the result {e order} — and therefore
    every downstream table, statistic and chart — bit-identical to the
    sequential execution.

    The pool is fork-join per call: [map ~domains:k] spawns [k - 1]
    worker domains (the calling domain is the k-th worker), drains a
    shared work queue, joins, and returns.  No resident domains linger
    between calls, so nested [map]s cannot deadlock and a library user
    pays nothing unless a sweep actually runs. *)

val set_default_domains : int -> unit
(** Set the domain count used when [map] is called without [?domains]
    (initially 1, i.e. fully sequential).  This is how the [-j]/[--jobs]
    command-line flags reach library code.
    @raise Invalid_argument on a count below 1. *)

val default_domains : unit -> int
(** Current default domain count. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] applies [f] to every element of [xs] using up to
    [domains] domains and returns the results in input order.

    - [domains] defaults to {!default_domains}; with [domains = 1] (or a
      list of fewer than two elements) this is exactly [List.map f xs] —
      no domain is spawned.
    - Results preserve input order regardless of which domain computed
      which element, so output is identical to the sequential path
      whenever [f] is pure.
    - If one or more applications of [f] raise, the exception of the
      {e leftmost} failing element among those evaluated is re-raised
      (with its original backtrace) after all workers have drained — the
      choice at assembly is deterministic even though workers finish in
      nondeterministic real-time order.  Recording a failure also stops
      workers from claiming further elements, so a poisoned batch does
      not run its whole tail; elements already in flight still complete
      (which elements were skipped is scheduling-dependent).

    [f] must not depend on shared mutable state: elements are evaluated
    concurrently on separate domains.
    @raise Invalid_argument on a domain count below 1. *)
