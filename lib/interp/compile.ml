type t = {
  ast : Ast.program;
  source_bytes : int;
  nodes : int;
  raw_nodes : int;
}

let fold_binop op a b =
  let open Ast in
  match (op, a, b) with
  | Add, Num x, Num y -> Some (Num (x +. y))
  | Sub, Num x, Num y -> Some (Num (x -. y))
  | Mul, Num x, Num y -> Some (Num (x *. y))
  | Div, Num x, Num y when y <> 0.0 -> Some (Num (x /. y))
  | Mod, Num x, Num y when y <> 0.0 -> Some (Num (Float.rem x y))
  | Add, Str x, Str y -> Some (Str (x ^ y))
  | Eq, Num x, Num y -> Some (Bool (x = y))
  | Neq, Num x, Num y -> Some (Bool (x <> y))
  | Lt, Num x, Num y -> Some (Bool (x < y))
  | Le, Num x, Num y -> Some (Bool (x <= y))
  | Gt, Num x, Num y -> Some (Bool (x > y))
  | Ge, Num x, Num y -> Some (Bool (x >= y))
  | Eq, Str x, Str y -> Some (Bool (x = y))
  | Neq, Str x, Str y -> Some (Bool (x <> y))
  | _ -> None

let rec fold_expr (e : Ast.expr) : Ast.expr =
  let open Ast in
  match e with
  | Num _ | Str _ | Bool _ | Null | Var _ -> e
  | Array es -> Array (List.map fold_expr es)
  | Object fields -> Object (List.map (fun (k, e) -> (k, fold_expr e)) fields)
  | Index (a, i) -> Index (fold_expr a, fold_expr i)
  | Field (e, f) -> Field (fold_expr e, f)
  | Call (f, args) -> Call (fold_expr f, List.map fold_expr args)
  | Unop (op, e) -> (
      let e = fold_expr e in
      match (op, e) with
      | Neg, Num n -> Num (-.n)
      | Not, Bool b -> Bool (not b)
      | _ -> Unop (op, e))
  | Binop (op, a, b) -> (
      let a = fold_expr a and b = fold_expr b in
      match fold_binop op a b with Some v -> v | None -> Binop (op, a, b))
  | And (a, b) -> (
      match fold_expr a with
      | Bool true -> fold_expr b
      | Bool false -> Bool false
      | a -> And (a, fold_expr b))
  | Or (a, b) -> (
      match fold_expr a with
      | Bool false -> fold_expr b
      | Bool true -> Bool true
      | a -> Or (a, fold_expr b))
  | Ternary (c, a, b) -> (
      match fold_expr c with
      | Bool true -> fold_expr a
      | Bool false -> fold_expr b
      | c -> Ternary (c, fold_expr a, fold_expr b))
  | Lambda (params, body) -> Lambda (params, fold_block body)

and fold_stmt (s : Ast.stmt) : Ast.stmt list =
  let open Ast in
  match s with
  | Expr e -> [ Expr (fold_expr e) ]
  | Let (name, e) -> [ Let (name, fold_expr e) ]
  | Assign (lv, e) ->
      let lv =
        match lv with
        | Lvar _ -> lv
        | Lindex (a, i) -> Lindex (fold_expr a, fold_expr i)
        | Lfield (e, f) -> Lfield (fold_expr e, f)
      in
      [ Assign (lv, fold_expr e) ]
  | If (c, then_, else_) -> (
      (* Dead branches are dropped, but the live branch keeps its [If]
         wrapper: inlining it would leak its [let] bindings into the
         enclosing scope. *)
      match fold_expr c with
      | Bool true -> ( match fold_block then_ with [] -> [] | b -> [ If (Bool true, b, []) ])
      | Bool false -> ( match fold_block else_ with [] -> [] | b -> [ If (Bool true, b, []) ])
      | c -> [ If (c, fold_block then_, fold_block else_) ])
  | While (c, body) -> (
      match fold_expr c with
      | Bool false -> []
      | c -> [ While (c, fold_block body) ])
  | Return None | Break | Continue -> [ s ]
  | Return (Some e) -> [ Return (Some (fold_expr e)) ]

and fold_block block = List.concat_map fold_stmt block

let fold_program = fold_block

let compile src =
  match Parser.parse src with
  | ast ->
      let raw_nodes = Ast.node_count ast in
      let folded = fold_program ast in
      Ok
        {
          ast = folded;
          source_bytes = String.length src;
          nodes = Ast.node_count folded;
          raw_nodes;
        }
  | exception Parser.Parse_error (msg, line, col) ->
      Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | exception Lexer.Lex_error (msg, line, col) ->
      Error (Printf.sprintf "lex error at %d:%d: %s" line col msg)

module Cache = struct
  module Tbl = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end)

  let capacity = 2048

  type nonrec t = (t, string) result Tbl.t

  let create () = Tbl.create 16

  (* A hit is a hash, one string compare and a bucket walk: no allocation.
     A miss on a full table flushes it whole, so what is cached depends
     only on the sequence of sources, never on timing or eviction order. *)
  let find_or_compile cache src =
    match Tbl.find cache src with
    | r -> r
    | exception Not_found ->
        let r = compile src in
        if Tbl.length cache >= capacity then Tbl.clear cache;
        Tbl.add cache src r;
        r
end
