type host = {
  http_get : string -> (string, string) result;
  log : string -> unit;
  now : unit -> float;
  work_ms : float -> unit;
  alloc : int -> unit;
  random : unit -> float;
}

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

let arr_of_list vs =
  let items = Array.of_list vs in
  Arr { items; len = Array.length items }

let arr_items a = Array.to_list (Array.sub a.items 0 a.len)

let arr_push a v =
  if a.len = Array.length a.items then begin
    let cap = max 4 (2 * Array.length a.items) in
    let items = Array.make cap Null in
    Array.blit a.items 0 items 0 a.len;
    a.items <- items
  end;
  a.items.(a.len) <- v;
  a.len <- a.len + 1

let obj_of_list fields =
  let h = Hashtbl.create (max 4 (List.length fields)) in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) fields;
  Obj h

let truthy = function
  | Null -> false
  | Bool b -> b
  | Num n -> n <> 0.0 && not (Float.is_nan n)
  | Str s -> s <> ""
  | Arr _ | Obj _ | Closure _ | Builtin _ -> true

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> x = y
  (* Reference types compare by identity — the guest language's (==)
     semantics, like JS objects. *)
  | Arr x, Arr y -> x == y (* seusslint: allow physical-eq — guest reference identity *)
  | Obj x, Obj y -> x == y (* seusslint: allow physical-eq — guest reference identity *)
  | Closure x, Closure y -> x == y (* seusslint: allow physical-eq — guest reference identity *)
  | Builtin (_, f), Builtin (_, g) -> f == g (* seusslint: allow physical-eq — guest reference identity *)
  | _ -> false

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"
  | Closure _ | Builtin _ -> "function"

let number_to_string n =
  if Float.is_integer n && Float.abs n < 1e15 then
    Printf.sprintf "%.0f" n
  else Printf.sprintf "%g" n

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num n -> number_to_string n
  | Str s -> Printf.sprintf "\"%s\"" (escape s)
  | Arr a ->
      let body = List.map to_string (arr_items a) in
      Printf.sprintf "[%s]" (String.concat ", " body)
  | Obj h ->
      let fields =
        Det.bindings h
        |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (escape k) (to_string v))
      in
      Printf.sprintf "{%s}" (String.concat ", " fields)
  | Closure _ | Builtin _ -> "<function>"

let heap_bytes = function
  | Null | Bool _ | Num _ -> 0
  | Str s -> 24 + String.length s
  | Arr a -> 32 + (16 * Array.length a.items)
  | Obj h -> 64 + (48 * Hashtbl.length h)
  | Closure c -> 64 + (16 * List.length c.params)
  | Builtin _ -> 0

(* Deep copy with physical-identity memoization. Each table or array
   starts as a [Hashtbl.copy]/[Array.copy] of its source (same bucket
   layout, no rehash), which already shares every scalar, string and
   builtin; then only the slots holding a reference value are patched in
   place to point at that value's copy. The memo is seeded *before*
   recursing because environment graphs are cyclic (an env binds a
   closure whose env is that same env). Identity lists are O(n^2) but
   guest programs are small. *)
type memo = { mutable envs : (env * env) list; mutable vals : (t * t) list }

let rec memo_find orig = function
  | [] -> None
  | (o, copy) :: rest ->
      (* seusslint: allow physical-eq — memo keyed by identity to preserve
         sharing *)
      if o == orig then Some copy else memo_find orig rest

let is_ref = function
  | Arr _ | Obj _ | Closure _ -> true
  | Null | Bool _ | Num _ | Str _ | Builtin _ -> false

let rec copy_value memo v =
  if not (is_ref v) then v
  else
    match memo_find v memo.vals with
    | Some copy -> copy
    | None -> copy_ref memo v

and copy_ref memo v =
  match v with
  | Arr a ->
      let fresh = { items = Array.copy a.items; len = a.len } in
      let copy = Arr fresh in
      memo.vals <- (v, copy) :: memo.vals;
      for i = 0 to a.len - 1 do
        let x = a.items.(i) in
        if is_ref x then fresh.items.(i) <- copy_value memo x
      done;
      copy
  | Obj h ->
      let fresh = Hashtbl.copy h in
      let copy = Obj fresh in
      memo.vals <- (v, copy) :: memo.vals;
      patch_table memo ~src:h ~dst:fresh;
      copy
  | Closure c -> (
      let env = copy_env memo c.env in
      (* Copying the env may have reached this closure already. *)
      match memo_find v memo.vals with
      | Some copy -> copy
      | None ->
          let copy = Closure { c with env } in
          memo.vals <- (v, copy) :: memo.vals;
          copy)
  | Null | Bool _ | Num _ | Str _ | Builtin _ -> v

(* [Hashtbl.replace] on a key [dst] already holds overwrites that
   binding in place: no allocation, no resize. *)
and patch_table memo ~src ~dst =
  (* seusslint: allow hashtbl-order — each slot is patched independently
     and the memo maps every source node to exactly one copy, so the
     copied graph is the same whatever order the buckets are visited in *)
  Hashtbl.iter
    (fun k x -> if is_ref x then Hashtbl.replace dst k (copy_value memo x))
    src

and copy_env memo env =
  match memo_find env memo.envs with
  | Some copy -> copy
  | None ->
      (* Seed before touching parent or values: the graph may reach this
         env again through either. *)
      let fresh = { vars = Hashtbl.copy env.vars; parent = None } in
      memo.envs <- (env, fresh) :: memo.envs;
      (match env.parent with
      | Some p -> fresh.parent <- Some (copy_env memo p)
      | None -> ());
      patch_table memo ~src:env.vars ~dst:fresh.vars;
      fresh

let deep_copy_env env = copy_env { envs = []; vals = [] } env

let new_env ?parent () = { vars = Hashtbl.create 8; parent }

let define env name v = Hashtbl.replace env.vars name v

let rec lookup env name =
  match Hashtbl.find_opt env.vars name with
  | Some v -> Some v
  | None -> ( match env.parent with Some p -> lookup p name | None -> None)

let rec assign env name v =
  if Hashtbl.mem env.vars name then begin
    Hashtbl.replace env.vars name v;
    true
  end
  else match env.parent with Some p -> assign p name v | None -> false
