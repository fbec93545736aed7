(** Typed protocol trace: events, sinks and the ring-buffer collector.

    This is the observability layer over the replicated-copy-control
    protocol.  Sites emit {!event}s through a {!sink} at the points the
    paper's three experiments time — transaction begin/read/write/
    commit/abort, the 2PC prepare/vote/decide steps, fail-lock
    transitions, session-vector changes, and control/copier
    transactions.  A {!t} collects entries in a bounded ring buffer
    stamped with virtual time; {!Trace_export} turns a collection into
    JSONL or Chrome trace-event JSON.

    Cost discipline: when tracing is off no sink exists, so the emitting
    code's only overhead is a [match] on an option that is [None] — no
    event value is ever constructed.  Each cluster owns its own
    collector (nothing global), so traced runs stay deterministic under
    {!Raid_par.Pool} fan-out. *)

type phase = Copy | Prepare | Commit
(** Coordinator-side phases of a transaction: the copier round (when one
    is needed), 2PC phase 1 and 2PC phase 2. *)

type control_kind = Recovery | Failure_announce | Backup | Clear_special
(** The paper's control transaction types 1-3 plus the special
    fail-lock-clear transaction. *)

type recovery_step =
  | Recover_command  (** the recover command reached the site *)
  | Wal_replayed of int  (** local WAL replay finished; payload = entries *)
  | Announced of int  (** recovery announced to the cluster; payload = session *)
  | State_installed  (** cluster state (vector/fail-locks) installed; up *)
      (** Boundary markers of control-transaction-1 recovery, emitted by
          the recovering site in this order.  {!Incident} turns them into
          per-episode timelines. *)

type event =
  | Txn_begin of { txn : int; reads : int; writes : int }
  | Txn_read of { txn : int; item : int; remote : bool }
      (** [remote] marks a partial-replication fetch-only read. *)
  | Txn_write of { txn : int; item : int }
  | Txn_commit of { txn : int }
  | Txn_abort of { txn : int; reason : string }
  | Phase_enter of { txn : int; phase : phase }
  | Prepare_sent of { txn : int; participants : int }
  | Vote of { txn : int; participant : int }
      (** Emitted by the participant when it acknowledges phase 1. *)
  | Decide of { txn : int; commit : bool }
  | Faillock_set of { item : int; for_site : int; txn : int option }
      (** [txn] is the transaction (or negative copier round) whose
          commit/install caused the transition, when one is in scope. *)
  | Faillock_cleared of { item : int; for_site : int; txn : int option }
  | Session_change of { about : int; session : int; state : string }
      (** The emitting site's vector entry for site [about] changed. *)
  | Site_failed  (** The emitting site just crashed (cluster-level mark). *)
  | Recovery_step of { step : recovery_step }
  | Control of { kind : control_kind; detail : string }
  | Copier_request of { txn : int; source : int; items : int }
      (** [txn] is negative for a batch (two-step recovery) round. *)
  | Copier_reply of { txn : int; source : int; items : int }

type entry = { at : Raid_net.Vtime.t; site : int; event : event }
(** One emitted event: virtual time and emitting site. *)

type sink = { emit : at:Raid_net.Vtime.t -> site:int -> event -> unit }
(** Where emitting code writes.  A record of one closure rather than a
    first-class module: cheap to store, cheap to test. *)

type t
(** A bounded collector.  When more than [capacity] events are emitted
    the oldest are dropped (and counted). *)

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 entries.
    @raise Invalid_argument on a non-positive capacity. *)

val sink : t -> sink
(** A sink appending into this collector. *)

val tee : sink list -> sink
(** A sink fanning every event out to each of [sinks], in list order.
    Lets a ring collector and a streaming assembler (e.g.
    {!Incident.recorder_sink}) observe the same run. *)

val entries : t -> entry list
(** Retained entries, oldest first (emission order, which is
    chronological in virtual time per site). *)

val emitted : t -> int
(** Total events emitted, including dropped ones. *)

val dropped : t -> int
(** Events lost to the ring bound: [max 0 (emitted - capacity)]. *)

val capacity : t -> int
(** The bound the collector was created with. *)

val clear : t -> unit

(** {2 Names (shared by exporters and reports)} *)

val phase_name : phase -> string
val control_kind_name : control_kind -> string

val recovery_step_name : recovery_step -> string
(** Stable snake_case tag ("recover_command", "wal_replayed", ...). *)

val kind : event -> string
(** Stable snake_case tag of the event constructor ("txn_begin", ...). *)

val counts : t -> (string * int) list
(** Retained-entry histogram by {!kind}, sorted by tag. *)
