(* The one Sys.getenv_opt call in lib/, bin/ and test/ (test_lint
   fails the build's tests on any other under lib/ or bin/). *)
let read var parse =
  match Sys.getenv_opt var with
  | None -> None
  | Some raw -> (
      match String.trim raw with
      | "" -> None
      | s -> (
          match parse s with
          | Some _ as v -> v
          | None ->
              Printf.eprintf "warning: ignoring malformed %s=%S\n%!" var raw;
              None))

let flag s =
  match String.lowercase_ascii s with
  | "1" | "true" | "yes" | "on" -> Some true
  | "0" | "false" | "no" | "off" -> Some false
  | _ -> None

let on var = read var flag = Some true

let decimal s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then
    int_of_string_opt s
  else None

let shuffle_seed () = read "SEUSS_SHUFFLE_SEED" Int64.of_string_opt
let deadlock () = on "SEUSS_DEADLOCK"
let own () = on "SEUSS_OWN"
let hb () = on "SEUSS_HB"

let fault_rate () =
  read "SEUSS_FAULT_RATE" (fun s ->
      match float_of_string_opt s with
      | Some r when Float.is_finite r && r >= 0.0 && r <= 1.0 -> Some r
      | _ -> None)

let fault_seed () = read "SEUSS_FAULT_SEED" Int64.of_string_opt
let prefault () = read "SEUSS_PREFAULT" flag

let parse_bytes s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let mult, digits =
      match Char.lowercase_ascii s.[len - 1] with
      | 'k' -> (0x400L, String.sub s 0 (len - 1))
      | 'm' -> (0x10_0000L, String.sub s 0 (len - 1))
      | 'g' -> (0x4000_0000L, String.sub s 0 (len - 1))
      | _ -> (1L, s)
    in
    match Int64.of_string_opt digits with
    | Some v
      when Int64.compare v 0L >= 0
           && Int64.compare v (Int64.div Int64.max_int mult) <= 0 ->
        Some (Int64.mul v mult)
    | _ -> None

let snap_cache () = read "SEUSS_SNAP_CACHE" parse_bytes

let snap_policy () =
  read "SEUSS_SNAP_POLICY" (fun s ->
      match String.lowercase_ascii s with
      | "lru" -> Some `Lru
      | "ws" -> Some `Ws
      | _ -> None)

let timeline () = on "SEUSS_TIMELINE"

let trace_sample () =
  read "SEUSS_TRACE_SAMPLE" (fun s ->
      match String.split_on_char '/' s with
      | [ n ] | [ "1"; n ] -> (
          match decimal n with Some n when n >= 1 -> Some n | _ -> None)
      | _ -> None)

let prop_seed () = read "SEUSS_PROP_SEED" Int64.of_string_opt
let load_prop_seed () = read "SEUSS_LOAD_PROP_SEED" Int64.of_string_opt
