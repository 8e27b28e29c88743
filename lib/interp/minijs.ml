type t = {
  compiled : Compile.t;
  env : Value.env;
  hooks : Eval.hooks;
  host : Value.host;
  cache : Compile.Cache.t;
}

let load ?(hooks = Eval.default_hooks) ?(cache = Compile.Cache.create ()) ~host
    source =
  match Compile.Cache.find_or_compile cache source with
  | Error _ as e -> e
  | Ok compiled -> (
      let globals = Value.new_env () in
      List.iter (fun (name, v) -> Value.define globals name v) Builtins.table;
      let env = Value.new_env ~parent:globals () in
      match Eval.exec_program hooks ~host ~env compiled.Compile.ast with
      | () -> Ok { compiled; env; hooks; host; cache }
      | exception Eval.Runtime_error msg -> Error ("runtime error: " ^ msg)
      | exception Eval.Ops_exhausted -> Error "runtime error: step budget exhausted")

let compiled t = t.compiled

let clone ?hooks ~host t =
  {
    t with
    env = Value.deep_copy_env t.env;
    hooks = Option.value hooks ~default:t.hooks;
    host;
  }

let call t ~fname args =
  match Value.lookup t.env fname with
  | None -> Error (Printf.sprintf "no function '%s'" fname)
  | Some f -> (
      match Eval.call t.hooks ~host:t.host f args with
      | v -> Ok v
      | exception Eval.Runtime_error msg -> Error ("runtime error: " ^ msg)
      | exception Eval.Ops_exhausted -> Error "runtime error: step budget exhausted")

let parse_literal t source =
  match Compile.Cache.find_or_compile t.cache source with
  | Error _ as e -> e
  | Ok { Compile.ast; _ } -> (
      match ast with
      | [ Ast.Expr e ] -> (
          match Eval.eval_expr t.hooks ~host:t.host ~env:t.env e with
          | v -> Ok v
          | exception Eval.Runtime_error msg -> Error ("runtime error: " ^ msg)
          | exception Eval.Ops_exhausted ->
              Error "runtime error: step budget exhausted")
      | [] -> Ok Value.Null
      | _ -> Error "expected a single expression")

let run_main t ~args_literal =
  match parse_literal t args_literal with
  | Error msg -> Error ("bad arguments: " ^ msg)
  | Ok args -> (
      match call t ~fname:"main" [ args ] with
      | Ok v -> Ok (Value.to_string v)
      | Error _ as e -> e)
