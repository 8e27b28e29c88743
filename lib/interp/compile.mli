(** The "import and compile" stage of a function's lifecycle.

    The paper measures roughly 5 ms to import and compile even a one-line
    NOP function (Table 1 discussion) — compilation is the dominant cold
    path cost that function-specific snapshots exist to skip. Our compile
    stage is real work: lexing, parsing and a constant-folding pass over
    the AST. The caller charges simulated time and guest-heap allocations
    proportional to the measured node counts. *)

type t = {
  ast : Ast.program;  (** folded program, ready to execute *)
  source_bytes : int;
  nodes : int;  (** post-fold AST size *)
  raw_nodes : int;  (** pre-fold AST size (parser allocation proxy) *)
}

val compile : string -> (t, string) result
(** [Error msg] carries a located syntax-error message. *)

val fold_program : Ast.program -> Ast.program
(** Constant folding: arithmetic/comparison on literals, branch pruning
    on constant conditions. Exposed for tests. *)

(** A bounded memo of {!compile} keyed by source text — the host-side
    counterpart of the function snapshot: a source the node has already
    compiled is not lexed, parsed and folded again. Sound because a
    {!t} is immutable and a pure function of its source, and callers
    charge simulated cost from its fields, which a hit returns
    unchanged. *)
module Cache : sig
  type compiled := t

  type t

  val capacity : int
  (** Entries held before the table is flushed whole (2048: a
      full-scale fig_load's 1024 functions plus scripts and argument
      literals). *)

  val create : unit -> t

  val find_or_compile : t -> string -> (compiled, string) result
  (** [compile src], memoised. [Error] results are cached too. A hit
      returns the physically same value and allocates nothing. *)
end
