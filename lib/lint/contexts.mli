(** The audited atomic-context list for the seussdead pass.

    Atomic contexts are callbacks the engine invokes outside any effect
    handler (memory fault hooks, quiescence hooks, race reporters, crash
    handlers, log clocks): a [Sleep]/[Suspend] performed there is
    an unhandled effect and aborts the simulation, so {!Deadlock}
    reports any may-block call reachable from one as
    [block-in-handler]. *)

type callback_arg =
  | Label of string  (** the (possibly optional) labelled argument *)
  | Positional of int  (** 0-based index among unlabelled arguments *)

val registrars : (string * callback_arg * string) list
(** (last two components of the registrar's path, which argument is the
    atomic callback, human description for reports). *)

val registrar_of :
  suffix:string -> (string * callback_arg * string) option
(** Look a call target up by its last two path components
    (e.g. ["Engine.at_quiescence"]). *)

val atomic : (string * string) list
(** Audited (repo-relative file, top-level binding) pairs naming
    functions installed as atomic callbacks far from their definition.
    New code can instead mark a binding with
    [(* seussdead: atomic <reason> *)] on its definition line. *)

val is_atomic : file:string -> binding:string -> bool
