(* The environment boundary: every SEUSS_* variable follows one grammar
   (unset = "", trimmed, case-insensitive flags, malformed warns once and
   reads as unset, nothing raises), byte sizes refuse to overflow, and
   SEUSS_TRACE_SAMPLE takes only N or 1/N. *)

(* Run [f] with stderr sent to a file; return its result and what it
   printed there. *)
let capture_stderr f =
  flush stderr;
  let tmp = Filename.temp_file "test_knobs" ".err" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin tmp In_channel.input_all in
  Sys.remove tmp;
  (result, text)

(* "" reads as unset (Unix offers no unsetenv). *)
let with_var var value f =
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var "") f

let opt show = function None -> "none" | Some v -> show v
let int64 f () = opt Int64.to_string (f ())
let flag f () = string_of_bool (f ())

let policy () =
  opt (function `Lru -> "lru" | `Ws -> "ws") (Knobs.snap_policy ())

(* One row per surviving variable: how to read it back, what unset reads
   as, well-formed spellings with their values (the neutral value first,
   then the armed one, then a padded or mixed-case one) and spellings
   malformed for this variable alone. *)
let rows =
  [
    ( "SEUSS_SHUFFLE_SEED", int64 Knobs.shuffle_seed, "none",
      [ ("0", "0"); ("3", "3"); (" 42 ", "42") ], [ "0x" ] );
    ( "SEUSS_DEADLOCK", flag Knobs.deadlock, "false",
      [ ("0", "false"); ("1", "true"); (" ON ", "true"); ("No", "false") ],
      [ "2" ] );
    ( "SEUSS_OWN", flag Knobs.own, "false",
      [ ("off", "false"); ("yes", "true"); (" ON ", "true") ], [ "y" ] );
    ( "SEUSS_HB", flag Knobs.hb, "false",
      [ ("false", "false"); ("TRUE", "true"); (" ON ", "true") ], [ "2" ] );
    ( "SEUSS_TIMELINE", flag Knobs.timeline, "false",
      [ ("0", "false"); ("on", "true"); (" ON ", "true") ], [ "enabled" ] );
    ( "SEUSS_FAULT_RATE", (fun () -> opt string_of_float (Knobs.fault_rate ())),
      "none", [ ("0", "0."); ("0.25", "0.25"); (" 1 ", "1.") ],
      [ "2"; "-0.1"; "nan" ] );
    ( "SEUSS_FAULT_SEED", int64 Knobs.fault_seed, "none",
      [ ("0", "0"); ("7", "7"); (" 9 ", "9") ], [ "7s" ] );
    ( "SEUSS_PREFAULT", (fun () -> opt string_of_bool (Knobs.prefault ())),
      "none", [ ("0", "false"); ("1", "true"); (" ON ", "true") ], [ "2" ] );
    ( "SEUSS_SNAP_CACHE", int64 Knobs.snap_cache, "none",
      [ ("0", "0"); ("64m", "67108864"); (" 2K ", "2048") ],
      [ "-1"; "9000000000g"; "4t" ] );
    ( "SEUSS_SNAP_POLICY", policy, "none",
      [ ("lru", "lru"); ("ws", "ws"); (" WS ", "ws") ], [ "fifo" ] );
    ( "SEUSS_TRACE_SAMPLE",
      (fun () -> opt string_of_int (Knobs.trace_sample ())),
      "none", [ ("1", "1"); ("1/7", "7"); (" 7 ", "7") ],
      [ "0"; "2/7"; "1/-7"; "0x7" ] );
    ( "SEUSS_PROP_SEED", int64 Knobs.prop_seed, "none",
      [ ("0", "0"); ("23", "23"); (" 5 ", "5") ], [ "5.0" ] );
    ( "SEUSS_LOAD_PROP_SEED", int64 Knobs.load_prop_seed, "none",
      [ ("0", "0"); ("29", "29"); (" 5 ", "5") ], [ "5.0" ] );
  ]

(* Malformed for every variable. *)
let garbage = [ "garbage"; "1.5"; "1/0"; "17179869184g"; "o n" ]

let warning var raw = Printf.sprintf "warning: ignoring malformed %s=%S\n" var raw

let test_grammar () =
  List.iter
    (fun (var, read, unset, cases, bad) ->
      let reads raw = capture_stderr (fun () -> with_var var raw read) in
      (* A sanitizer matrix may have armed the variable for the whole
         run; Unix offers no unsetenv, so only an absent one is checked. *)
      if not (List.exists (String.starts_with ~prefix:(var ^ "="))
                (Array.to_list (Unix.environment ())))
      then begin
        let unset_value, printed = capture_stderr read in
        Alcotest.(check string) (var ^ " unset") unset unset_value;
        Alcotest.(check string) (var ^ " unset is silent") "" printed
      end;
      let blank, printed = reads "" in
      Alcotest.(check string) (var ^ "=\"\" reads as unset") unset blank;
      Alcotest.(check string) (var ^ "=\"\" is silent") "" printed;
      List.iter
        (fun (raw, expected) ->
          let v, printed = reads raw in
          Alcotest.(check string) (Printf.sprintf "%s=%S" var raw) expected v;
          Alcotest.(check string)
            (Printf.sprintf "%s=%S is silent" var raw) "" printed)
        cases;
      List.iter
        (fun raw ->
          let v, printed = reads raw in
          Alcotest.(check string)
            (Printf.sprintf "%s=%S reads as unset" var raw) unset v;
          Alcotest.(check string)
            (Printf.sprintf "%s=%S warns once" var raw) (warning var raw)
            printed)
        (bad @ garbage))
    rows

let test_parse_bytes () =
  let cases =
    [
      ("0", Some 0L);
      ("4096", Some 4096L);
      ("2k", Some 2048L);
      ("3m", Some 3145728L);
      ("64M", Some 67108864L);
      ("1g", Some 1073741824L);
      (" 8G ", Some 8589934592L);
      ("9223372036854775807", Some Int64.max_int);
      ("8589934591g", Some 0x7FFF_FFFF_C000_0000L);
      ("17179869184g", None);
      ("9000000000g", None);
      ("9223372036854775807k", None);
      ("9223372036854775808", None);
      ("-1", None);
      ("", None);
      ("k", None);
      ("1t", None);
      ("1.5m", None);
    ]
  in
  List.iter
    (fun (s, expected) ->
      Alcotest.(check (option int64))
        (Printf.sprintf "parse_bytes %S" s) expected (Knobs.parse_bytes s))
    cases

(* {1 Properties} *)

(* putenv refuses NUL; everything else is fair game. *)
let env_string gen =
  QCheck.make ~print:QCheck.Print.string
    (QCheck.Gen.map (String.map (fun c -> if c = '\000' then ' ' else c)) gen)

let env_value =
  env_string
    QCheck.Gen.(
      oneof
        [
          string;
          string_printable;
          oneofl [ " on "; "1/"; "/"; "1/1/1"; "0x10"; "nan"; "1e400" ];
        ])

let never_raises =
  QCheck.Test.make ~name:"no accessor raises; malformed warns one line"
    ~count:300 env_value (fun raw ->
      List.for_all
        (fun (var, read, _, _, _) ->
          let _, printed = capture_stderr (fun () -> with_var var raw read) in
          printed = "" || printed = warning var raw)
        rows)

let multiplier = function
  | "k" | "K" -> 0x400L
  | "m" | "M" -> 0x10_0000L
  | "g" | "G" -> 0x4000_0000L
  | _ -> 1L

let bytes_exact =
  let gen =
    QCheck.Gen.(
      pair
        (oneof
           [
             map Int64.of_int nat;
             map (fun n -> Int64.logand n Int64.max_int) ui64;
             map
               (fun d -> Int64.sub (Int64.div Int64.max_int 0x4000_0000L) d)
               (map Int64.of_int (int_range (-3) 3));
           ])
        (oneofl [ ""; "k"; "K"; "m"; "M"; "g"; "G" ]))
  in
  QCheck.Test.make ~name:"parse_bytes is exact or refuses to overflow"
    ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair int64 string) gen)
    (fun (n, suffix) ->
      let mult = multiplier suffix in
      let expected =
        if Int64.compare n (Int64.div Int64.max_int mult) <= 0 then
          Some (Int64.mul n mult)
        else None
      in
      Knobs.parse_bytes (Int64.to_string n ^ suffix) = expected)

let trace_sample_forms =
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_printable;
          map string_of_int (int_range (-3) 1000);
          map (fun n -> "1/" ^ string_of_int n) (int_range (-3) 1000);
          map2 (Printf.sprintf "%d/%d") (int_range 0 4) (int_range 0 20);
          map (Printf.sprintf " 1/%d ") (int_range 0 20);
        ])
  in
  let decimal s =
    s <> "" && String.for_all (fun c -> '0' <= c && c <= '9') s
  in
  QCheck.Test.make ~name:"SEUSS_TRACE_SAMPLE accepts only N or 1/N, N >= 1"
    ~count:500
    (env_string gen)
    (fun raw ->
      let got, _ =
        capture_stderr (fun () ->
            with_var "SEUSS_TRACE_SAMPLE" raw Knobs.trace_sample)
      in
      let s = String.trim raw in
      let n =
        if String.starts_with ~prefix:"1/" s then
          String.sub s 2 (String.length s - 2)
        else s
      in
      let expected =
        if decimal n then
          Option.bind (int_of_string_opt n) (fun k ->
              if k >= 1 then Some k else None)
        else None
      in
      got = expected)

let () =
  Alcotest.run "knobs"
    [
      ( "grammar",
        [
          Alcotest.test_case "every variable, every shape" `Quick test_grammar;
          QCheck_alcotest.to_alcotest never_raises;
        ] );
      ( "bytes",
        [
          Alcotest.test_case "spellings and overflow" `Quick test_parse_bytes;
          QCheck_alcotest.to_alcotest bytes_exact;
        ] );
      ("trace_sample", [ QCheck_alcotest.to_alcotest trace_sample_forms ]);
    ]
