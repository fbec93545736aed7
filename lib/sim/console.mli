(** The interactive managing site.

    The paper's managing site "provide[s] interactive control of system
    actions ... used to cause sites to fail and recover and to initiate a
    database transaction to a site" (§1.2).  This module is that console:
    a line-oriented command interpreter over a {!Raid_core.Cluster}, used
    by [raid repl] and directly testable (output goes through a supplied
    printer). *)

type t

val create : ?sites:int -> ?items:int -> ?max_ops:int -> ?seed:int -> unit -> t
(** A fresh traced cluster behind a console.  Defaults: 4 sites, 50
    items, random transactions of at most [max_ops] (default 5)
    operations, seed 42.  @raise Invalid_argument on a size the
    configuration or the workload rejects. *)

val cluster : t -> Raid_core.Cluster.t

val help_text : string

val command : t -> print:(string -> unit) -> string -> [ `Continue | `Quit ]
(** Interpret one command line; every line of output is passed to
    [print] (without trailing newlines).  Unknown or malformed commands
    print usage hints; protocol errors are caught and printed. *)

val run_stdin : t -> unit
(** The interactive loop: prompt on stdout, read stdin until EOF or
    [quit]. *)
