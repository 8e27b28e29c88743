(** The MiniJS standard library: one static table of builtins shared by
    every program instance.

    A builtin takes the calling instance's {!Value.host} as its first
    argument ({!Eval} passes it), so no builtin captures a host and a
    clone never rebuilds or rebinds them. *)

type host = Value.host = {
  http_get : string -> (string, string) result;
  log : string -> unit;
  now : unit -> float;
  work_ms : float -> unit;
  alloc : int -> unit;
  random : unit -> float;
}
(** Re-export of {!Value.host}, where the fields are documented. *)

val null_host : host
(** No-op host for host-side unit tests: [http_get] fails, [now] is 0. *)

val table : (string * Value.t) list
(** Global bindings, built once at module initialisation: [len],
    [push], [keys], [str], [num], [floor], [abs], [min], [max], [pow],
    [sqrt], [substr], [split], [join], [contains], [index_of], [upper],
    [lower], [trim], [slice], [sort], [range], [json], [hash], [print],
    [now], [random], [work], [http_get]. *)
