(** Metered tree-walking evaluator.

    Every evaluation step and heap allocation is reported through
    {!hooks}, which is how MiniJS execution is coupled to the simulated
    world: the unikernel guest wires [alloc] to a bump allocator over the
    UC address space (so running code dirties pages) and [work] to
    simulated CPU time (so heavy functions occupy a core). *)

type hooks = {
  alloc : int -> unit;  (** called with approximate bytes per allocation *)
  work : float -> unit;
      (** called with simulated CPU seconds, in batches — implementations
          typically accumulate or [Engine.sleep] *)
  max_ops : int;  (** runaway-script guard *)
}

val default_hooks : hooks
(** No-op metering with a 100M-step budget; for host-side tests. *)

val seconds_per_op : float
(** Simulated interpreter speed (50M simple operations per second, in
    the range of a bytecode interpreter on the paper's 2.2 GHz Xeon). *)

exception Runtime_error of string

exception Ops_exhausted
(** The [max_ops] budget was hit. *)

val exec_program :
  hooks -> host:Value.host -> env:Value.env -> Ast.program -> unit
(** Execute top-level statements, binding declarations into [env].
    Every builtin called on the way receives [host]. *)

val call : hooks -> host:Value.host -> Value.t -> Value.t list -> Value.t
(** Apply a closure or builtin. @raise Runtime_error on a non-function. *)

val eval_expr :
  hooks -> host:Value.host -> env:Value.env -> Ast.expr -> Value.t
