type host = Value.host = {
  http_get : string -> (string, string) result;
  log : string -> unit;
  now : unit -> float;
  work_ms : float -> unit;
  alloc : int -> unit;
  random : unit -> float;
}

let null_host =
  {
    http_get = (fun _ -> Error "no network");
    log = ignore;
    now = (fun () -> 0.0);
    work_ms = ignore;
    alloc = ignore;
    random = (fun () -> 0.5);
  }

let error fmt = Printf.ksprintf (fun s -> raise (Eval.Runtime_error s)) fmt

let arity name n args =
  if List.length args <> n then
    error "%s: expected %d arguments, got %d" name n (List.length args)

let num name = function
  | Value.Num n -> n
  | v -> error "%s: expected number, got %s" name (Value.type_name v)

let string_arg name = function
  | Value.Str s -> s
  | v -> error "%s: expected string, got %s" name (Value.type_name v)

let num1 name f =
  Value.Builtin
    ( name,
      fun _ args ->
        arity name 1 args;
        Value.Num (f (num name (List.hd args))) )

let ret_str host s =
  host.alloc (24 + String.length s);
  Value.Str s

let table =
  [
    ( "len",
      Value.Builtin
        ( "len",
          fun _ args ->
            arity "len" 1 args;
            match args with
            | [ Value.Arr a ] -> Value.Num (float_of_int a.Value.len)
            | [ Value.Str s ] -> Value.Num (float_of_int (String.length s))
            | [ Value.Obj h ] -> Value.Num (float_of_int (Hashtbl.length h))
            | [ v ] -> error "len: cannot measure %s" (Value.type_name v)
            | _ -> assert false ) );
    ( "push",
      Value.Builtin
        ( "push",
          fun host args ->
            arity "push" 2 args;
            match args with
            | [ Value.Arr a; v ] ->
                Value.arr_push a v;
                host.alloc 16;
                Value.Num (float_of_int a.Value.len)
            | [ v; _ ] -> error "push: expected array, got %s" (Value.type_name v)
            | _ -> assert false ) );
    ( "keys",
      Value.Builtin
        ( "keys",
          fun host args ->
            arity "keys" 1 args;
            match args with
            | [ Value.Obj h ] ->
                let ks = List.map (fun k -> Value.Str k) (Det.keys h) in
                let v = Value.arr_of_list ks in
                host.alloc (Value.heap_bytes v);
                v
            | [ v ] -> error "keys: expected object, got %s" (Value.type_name v)
            | _ -> assert false ) );
    ( "str",
      Value.Builtin
        ( "str",
          fun host args ->
            arity "str" 1 args;
            match args with
            | [ Value.Str s ] -> Value.Str s
            | [ v ] -> ret_str host (Value.to_string v)
            | _ -> assert false ) );
    ( "num",
      Value.Builtin
        ( "num",
          fun _ args ->
            arity "num" 1 args;
            match args with
            | [ Value.Num n ] -> Value.Num n
            | [ Value.Str s ] -> (
                match float_of_string_opt (String.trim s) with
                | Some n -> Value.Num n
                | None -> error "num: cannot parse %S" s)
            | [ Value.Bool b ] -> Value.Num (if b then 1.0 else 0.0)
            | [ v ] -> error "num: cannot convert %s" (Value.type_name v)
            | _ -> assert false ) );
    ("floor", num1 "floor" floor);
    ("abs", num1 "abs" Float.abs);
    ("sqrt", num1 "sqrt" sqrt);
    ( "min",
      Value.Builtin
        ( "min",
          fun _ args ->
            arity "min" 2 args;
            match args with
            | [ a; b ] -> Value.Num (Float.min (num "min" a) (num "min" b))
            | _ -> assert false ) );
    ( "max",
      Value.Builtin
        ( "max",
          fun _ args ->
            arity "max" 2 args;
            match args with
            | [ a; b ] -> Value.Num (Float.max (num "max" a) (num "max" b))
            | _ -> assert false ) );
    ( "pow",
      Value.Builtin
        ( "pow",
          fun _ args ->
            arity "pow" 2 args;
            match args with
            | [ a; b ] -> Value.Num (Float.pow (num "pow" a) (num "pow" b))
            | _ -> assert false ) );
    ( "substr",
      Value.Builtin
        ( "substr",
          fun host args ->
            arity "substr" 3 args;
            match args with
            | [ s; start; len ] ->
                let s = string_arg "substr" s in
                let start = int_of_float (num "substr" start) in
                let len = int_of_float (num "substr" len) in
                if start < 0 || len < 0 || start + len > String.length s then
                  error "substr: out of bounds"
                else ret_str host (String.sub s start len)
            | _ -> assert false ) );
    ( "split",
      Value.Builtin
        ( "split",
          fun host args ->
            arity "split" 2 args;
            match args with
            | [ s; sep ] ->
                let s = string_arg "split" s in
                let sep = string_arg "split" sep in
                if String.length sep <> 1 then
                  error "split: separator must be one character"
                else begin
                  let parts =
                    String.split_on_char sep.[0] s
                    |> List.map (fun p -> Value.Str p)
                  in
                  let v = Value.arr_of_list parts in
                  host.alloc (Value.heap_bytes v);
                  v
                end
            | _ -> assert false ) );
    ( "range",
      Value.Builtin
        ( "range",
          fun host args ->
            arity "range" 1 args;
            let n = int_of_float (num "range" (List.hd args)) in
            if n < 0 || n > 10_000_000 then error "range: bad bound %d" n
            else begin
              let v =
                Value.arr_of_list (List.init n (fun i -> Value.Num (float_of_int i)))
              in
              host.alloc (Value.heap_bytes v);
              v
            end ) );
    ( "json",
      Value.Builtin
        ( "json",
          fun host args ->
            arity "json" 1 args;
            ret_str host (Value.to_string (List.hd args)) ) );
    ( "hash",
      Value.Builtin
        ( "hash",
          fun _ args ->
            arity "hash" 1 args;
            (* FNV-1a: honest per-character work for CPU-ish examples. *)
            let s = string_arg "hash" (List.hd args) in
            let h = ref 2166136261 in
            String.iter
              (fun c ->
                h := (!h lxor Char.code c) * 16777619 land 0x3FFFFFFF)
              s;
            Value.Num (float_of_int !h) ) );
    ( "join",
      Value.Builtin
        ( "join",
          fun host args ->
            arity "join" 2 args;
            match args with
            | [ Value.Arr a; sep ] ->
                let sep = string_arg "join" sep in
                let parts =
                  List.map
                    (function Value.Str s -> s | v -> Value.to_string v)
                    (Value.arr_items a)
                in
                ret_str host (String.concat sep parts)
            | [ v; _ ] -> error "join: expected array, got %s" (Value.type_name v)
            | _ -> assert false ) );
    ( "contains",
      Value.Builtin
        ( "contains",
          fun _ args ->
            arity "contains" 2 args;
            match args with
            | [ s; needle ] ->
                let s = string_arg "contains" s in
                let needle = string_arg "contains" needle in
                let n = String.length needle and len = String.length s in
                let rec go i =
                  i + n <= len && (String.sub s i n = needle || go (i + 1))
                in
                Value.Bool (n = 0 || go 0)
            | _ -> assert false ) );
    ( "index_of",
      Value.Builtin
        ( "index_of",
          fun _ args ->
            arity "index_of" 2 args;
            match args with
            | [ Value.Arr a; v ] ->
                let rec go i =
                  if i >= a.Value.len then -1.0
                  else if Value.equal a.Value.items.(i) v then float_of_int i
                  else go (i + 1)
                in
                Value.Num (go 0)
            | [ Value.Str s; needle ] ->
                let needle = string_arg "index_of" needle in
                let n = String.length needle and len = String.length s in
                let rec go i =
                  if i + n > len then -1.0
                  else if String.sub s i n = needle then float_of_int i
                  else go (i + 1)
                in
                Value.Num (go 0)
            | [ v; _ ] ->
                error "index_of: expected array or string, got %s"
                  (Value.type_name v)
            | _ -> assert false ) );
    ( "upper",
      Value.Builtin
        ( "upper",
          fun host args ->
            arity "upper" 1 args;
            ret_str host
              (String.uppercase_ascii (string_arg "upper" (List.hd args))) ) );
    ( "lower",
      Value.Builtin
        ( "lower",
          fun host args ->
            arity "lower" 1 args;
            ret_str host
              (String.lowercase_ascii (string_arg "lower" (List.hd args))) ) );
    ( "trim",
      Value.Builtin
        ( "trim",
          fun host args ->
            arity "trim" 1 args;
            ret_str host (String.trim (string_arg "trim" (List.hd args))) ) );
    ( "slice",
      Value.Builtin
        ( "slice",
          fun host args ->
            arity "slice" 3 args;
            match args with
            | [ Value.Arr a; start; count ] ->
                let start = int_of_float (num "slice" start) in
                let count = int_of_float (num "slice" count) in
                if start < 0 || count < 0 || start + count > a.Value.len then
                  error "slice: out of bounds"
                else begin
                  let v =
                    Value.arr_of_list
                      (Array.to_list (Array.sub a.Value.items start count))
                  in
                  host.alloc (Value.heap_bytes v);
                  v
                end
            | [ v; _; _ ] ->
                error "slice: expected array, got %s" (Value.type_name v)
            | _ -> assert false ) );
    ( "sort",
      Value.Builtin
        ( "sort",
          fun host args ->
            arity "sort" 1 args;
            match args with
            | [ Value.Arr a ] ->
                let items = Value.arr_items a in
                let cmp x y =
                  match (x, y) with
                  | Value.Num p, Value.Num q -> compare p q
                  | Value.Str p, Value.Str q -> compare p q
                  | _ ->
                      error "sort: elements must be all numbers or all strings"
                in
                let v = Value.arr_of_list (List.sort cmp items) in
                host.alloc (Value.heap_bytes v);
                v
            | [ v ] -> error "sort: expected array, got %s" (Value.type_name v)
            | _ -> assert false ) );
    ( "print",
      Value.Builtin
        ( "print",
          fun host args ->
            let text =
              String.concat " "
                (List.map
                   (function Value.Str s -> s | v -> Value.to_string v)
                   args)
            in
            host.log text;
            Value.Null ) );
    ( "now",
      Value.Builtin
        ( "now",
          fun host args ->
            arity "now" 0 args;
            Value.Num (host.now ()) ) );
    ( "random",
      Value.Builtin
        ( "random",
          fun host args ->
            arity "random" 0 args;
            Value.Num (host.random ()) ) );
    ( "work",
      Value.Builtin
        ( "work",
          fun host args ->
            arity "work" 1 args;
            let ms = num "work" (List.hd args) in
            if ms < 0.0 then error "work: negative duration";
            host.work_ms ms;
            Value.Null ) );
    ( "http_get",
      Value.Builtin
        ( "http_get",
          fun host args ->
            arity "http_get" 1 args;
            let url = string_arg "http_get" (List.hd args) in
            match host.http_get url with
            | Ok body -> ret_str host body
            | Error msg -> error "http_get: %s" msg ) );
  ]
