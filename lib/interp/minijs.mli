(** Facade: compile and run MiniJS programs against a host.

    This is the interpreter instance a unikernel context embeds. A
    program is expected to define a [main] entry point:

    {[
      function main(args) { return { ok: true }; }
    ]}

    Invocation arguments and results travel as MiniJS literal text
    (JSON-compatible), mirroring how OpenWhisk passes JSON through the
    invocation driver. *)

type t
(** A loaded program instance (bindings live in its global scope). *)

val load :
  ?hooks:Eval.hooks ->
  ?cache:Compile.Cache.t ->
  host:Builtins.host ->
  string ->
  (t, string) result
(** Compile source and execute its top-level, binding declarations.
    Returns [Error] on syntax or top-level runtime errors. The compile
    goes through [cache] (default: a fresh private one, so the source
    is always compiled from scratch), and the instance keeps it for
    {!parse_literal}. The top level runs on every load, hit or miss. *)

val compiled : t -> Compile.t

val clone : ?hooks:Eval.hooks -> host:Builtins.host -> t -> t
(** An isolated copy of the program instance that runs against [host]
    (and [hooks], default: [t]'s). Only the mutable cells of the
    environment graph are copied ({!Value.deep_copy_env}); builtins,
    strings, closure bodies, the compiled program and the compile cache
    are shared, and builtins reach the new [host] because {!Eval} passes
    the caller's host to them. Used on snapshot capture (freeze a
    template) and on deploy (give each UC its own mutable world). *)

val call : t -> fname:string -> Value.t list -> (Value.t, string) result
(** Call a global function by name. *)

val run_main : t -> args_literal:string -> (string, string) result
(** Parse [args_literal] as a MiniJS expression, call [main], return the
    JSON-rendered result. *)

val parse_literal : t -> string -> (Value.t, string) result
(** Evaluate a literal/expression string in the program's scope. The
    text is compiled through the instance's cache, so a repeated literal
    (every invocation's ["{}"]) is lexed and parsed once. *)
