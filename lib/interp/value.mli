(** Runtime values and environments of MiniJS. *)

type host = {
  http_get : string -> (string, string) result;
      (** Outbound HTTP GET; in the simulator this blocks the calling
          process for the modeled network time. *)
  log : string -> unit;  (** console output *)
  now : unit -> float;  (** seconds since guest boot *)
  work_ms : float -> unit;
      (** [work_ms d]: occupy the CPU for [d] simulated milliseconds —
          the paper's ~150 ms CPU-bound burst function uses this to model
          a tight numeric kernel without host-side cost. *)
  alloc : int -> unit;  (** guest-heap allocation accounting *)
  random : unit -> float;  (** deterministic per-guest PRNG draw *)
}
(** How guest code reaches the outside world. In the full system it is
    backed by the unikernel's hypercall surface (HTTP through the
    simulated network, time from the simulated clock), keeping the guest
    as isolated as the paper's Solo5-style domain. A builtin receives
    the host of the instance that calls it, so builtins capture nothing
    per instance and every instance shares one set of them. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of arr
  | Obj of (string, t) Hashtbl.t
  | Closure of closure
  | Builtin of string * (host -> t list -> t)

and arr = { mutable items : t array; mutable len : int }

and closure = { params : string list; body : Ast.block; env : env }

and env = { vars : (string, t) Hashtbl.t; mutable parent : env option }

val arr_of_list : t list -> t

val arr_items : arr -> t list

val arr_push : arr -> t -> unit

val obj_of_list : (string * t) list -> t

val truthy : t -> bool
(** JS-like: [null], [false], [0], [""] are falsy. *)

val equal : t -> t -> bool
(** Structural on primitives, physical on arrays/objects/functions. *)

val type_name : t -> string

val to_string : t -> string
(** Display form; JSON-compatible for null/bool/num/str/array/object
    trees (functions render as ["<function>"]). *)

val heap_bytes : t -> int
(** Approximate guest-heap size of freshly constructing this value
    (shallow) — drives the allocation metering. *)

val deep_copy_env : env -> env
(** Structure-preserving deep copy of an environment graph. Every env
    table, object and array is duplicated (sharing and cycles preserved
    via physical memoization), so mutations on the copy never reach the
    original. Scalars, strings, builtins and closure bodies are shared:
    each table starts as a [Hashtbl.copy] of its source and only the
    slots holding an array, object or closure are re-pointed at their
    copies.

    This is how a snapshot freezes a guest's interpreter state: the
    capture takes a copy as an immutable template, and every UC deployed
    from the snapshot clones its own working copy. *)

(** {1 Environments} *)

val new_env : ?parent:env -> unit -> env

val define : env -> string -> t -> unit

val lookup : env -> string -> t option
(** Searches the scope chain. *)

val assign : env -> string -> t -> bool
(** Updates the innermost binding; [false] if unbound. *)
