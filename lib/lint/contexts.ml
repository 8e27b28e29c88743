(* The audited atomic-context list for the seussdead pass.

   An "atomic context" is code the engine runs outside any effect
   handler: fault hooks fire under a page-table update, quiescence hooks
   and race reporters fire outside any process, and crash handlers fire
   while the process handler is unwinding. Performing Sleep/Suspend
   there is an unhandled effect — the simulation aborts — so no
   may-block call may be reachable from one.

   Two ways a context enters the analysis:

   - [registrars]: functions whose callback argument becomes atomic. The
     deadlock pass treats the callback expression at every call site of
     a registrar (matched by its last two path components) as an atomic
     region: a function literal is analyzed in place, a function name is
     analyzed through its interprocedural summary.

   - [atomic]: audited (file, top-level binding) pairs naming functions
     that are installed as atomic callbacks far from their definition.
     Like Sites.audited, the list is the reviewable inventory; fixtures
     and new code can alternatively mark a binding with
     (* seussdead: atomic <reason> *) on its definition. *)

(* Which argument of a registrar is the atomic callback. *)
type callback_arg =
  | Label of string  (** the (possibly optional) labelled argument *)
  | Positional of int  (** 0-based index among unlabelled arguments *)

(* (last two components of the registrar's path, callback argument,
   human description for reports) *)
let registrars : (string * callback_arg * string) list =
  [
    ("Addr_space.set_fault_hook", Positional 1, "memory fault hook");
    ("Hb.add_reporter", Positional 1, "race reporter");
    ("Engine.at_quiescence", Positional 1, "quiescence hook");
    ("Engine.spawn_supervised", Label "on_crash", "crash handler");
    ("Log.create", Label "clock", "log clock callback");
  ]

let registrar_of ~suffix =
  List.find_opt (fun (s, _, _) -> String.equal s suffix) registrars

(* (repo-relative file, top-level binding) of audited atomic roots.
   Empty today: every shipped atomic context is a literal or named
   argument at a registrar call site, which the pass finds by itself. *)
let atomic : (string * string) list = []

let is_atomic ~file ~binding =
  List.exists
    (fun (f, b) -> String.equal f file && String.equal b binding)
    atomic
