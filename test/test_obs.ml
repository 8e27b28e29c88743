(* Tests for the observability layer: JSON codec, the event log (its
   bounded window, JSONL round-trip, a model-based property and the
   zero-alloc emit contract), the metrics registry and the per-phase
   breakdown aggregator — plus an end-to-end check that a real node
   workload produces a parseable event stream.

   SEUSS_PROP_SEED overrides the log property's seed (CI rotates it). *)

let base_seed =
  Option.fold ~none:31 ~some:Int64.to_int (Knobs.prop_seed ())

let contains needle hay =
  let n = String.length needle and len = String.length hay in
  let rec go i = i + n <= len && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* {1 Json} *)

let test_json_roundtrip () =
  let samples =
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Int (-42);
      Obs.Json.Float 2.9742431176;
      Obs.Json.Float 120262656.0;
      Obs.Json.String "needs \"escaping\"\n\ttoo";
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Null; Obs.Json.Bool false ];
      Obs.Json.Obj
        [ ("a", Obs.Json.Int 1); ("b", Obs.Json.List [ Obs.Json.String "x" ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Obs.Json.to_string j in
      match Obs.Json.of_string s with
      | Error e -> Alcotest.failf "reparse of %s failed: %s" s e
      | Ok j' ->
          Alcotest.(check string)
            ("stable: " ^ s) s (Obs.Json.to_string j'))
    samples

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage: %s" s)
    [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "\"unterminated"; "{\"a\":1} trailing" ]

let test_event_roundtrip_all_variants () =
  let events =
    [
      Obs.Event.Invoke_start { fn_id = "fn-1" };
      Obs.Event.Invoke_finish
        {
          fn_id = "fn-1";
          path = Obs.Event.Cold;
          queue = 0.0001;
          deploy = 0.0004;
          import = 0.006;
          run = 0.0008;
          total = 0.0073;
          ok = true;
        };
      Obs.Event.Snapshot_capture
        { name = "fn-fn-1"; pages = 546; bytes = 2236416L };
      Obs.Event.Cow_fault { uc_id = 7 };
      Obs.Event.Uc_reclaim { uc_id = 7; fn_id = "fn-1" };
      Obs.Event.Oom_wake { free_bytes = 1048576L };
      Obs.Event.Fault_injected { site = "uc_kill"; detail = "uc-42" };
      Obs.Event.Invoke_retry { fn_id = "fn-1" };
      Obs.Event.Node_crash { node_id = 2 };
      Obs.Event.Fetch_retry { fn_id = "fn-1"; attempt = 2; backoff = 0.075 };
      Obs.Event.Registry_evict
        { fn_id = "fn-1"; node_id = 3; reason = "dead holder" };
      Obs.Event.Registry_repair { node_id = 1; republished = 4 };
      Obs.Event.Failover { fn_id = "fn-1"; from_node = 0; to_node = 2 };
      Obs.Event.Degraded_cold { fn_id = "fn-1" };
      Obs.Event.Partition_change { a = 0; b = 3; healed = false };
      Obs.Event.Ws_record { snapshot = "fn-fn-1"; pages = 546 };
      Obs.Event.Ws_prefault
        {
          uc_id = 7;
          snapshot = "fn-fn-1";
          pages = 546;
          cow_copied = 530;
          zero_filled = 16;
        };
      Obs.Event.San_race
        { cell = "registry.table"; kind = "write/write"; first_pid = 1; second_pid = 4 };
      Obs.Event.Timeline_sample
        {
          run_queue = 12;
          in_flight = 3;
          free_bytes = 87912349696L;
          idle_ucs = 5;
          cached_snapshots = 17;
          stuck_waiters = 0;
        };
      Obs.Event.Snap_dedup
        {
          snapshot = "fn-fn-1";
          delta_pages = 546;
          shared_pages = 540;
          unique_pages = 6;
        };
      Obs.Event.Snap_delta
        {
          snapshot = "fn-fn-1";
          parent = "node-base";
          delta_pages = 546;
          delta_bytes = 2236416L;
        };
      Obs.Event.Snap_evict
        {
          fn_id = "fn-1";
          pages_freed = 6;
          resident_bytes = 4194304L;
          policy = "lru";
        };
      Obs.Event.San_leak
        { node = "node0"; frames = 3; snapshot_refs = 1; pinned = 0; ucs = 2 };
    ]
  in
  List.iter
    (fun ev ->
      let j = Obs.Event.to_json ~time:1.25 ev in
      match Obs.Event.of_json j with
      | Error e -> Alcotest.failf "%s: %s" (Obs.Event.type_name ev) e
      | Ok (time, ev') ->
          Alcotest.(check (float 0.0)) "time" 1.25 time;
          Alcotest.(check string) "event survives"
            (Obs.Json.to_string (Obs.Event.to_json ~time ev))
            (Obs.Json.to_string (Obs.Event.to_json ~time ev')))
    events

(* {1 Retained window} *)

(* The log's bounded window, observed through its stamps: the clock
   reads the emit index, so the retained times name the retained
   events. *)
let test_ring_overwrites_oldest () =
  let now = ref 0.0 in
  let log = Obs.Log.create ~capacity:3 ~clock:(fun () -> !now) () in
  List.iter
    (fun i ->
      now := float_of_int i;
      Obs.Log.emit log (Obs.Event.Cow_fault { uc_id = i }))
    [ 1; 2; 3; 4; 5 ];
  let times () = List.map (fun r -> r.Obs.Log.time) (Obs.Log.records log) in
  Alcotest.(check (list (float 0.0))) "keeps newest" [ 3.; 4.; 5. ] (times ());
  Alcotest.(check int) "length capped" 3 (List.length (Obs.Log.records log));
  Alcotest.(check int) "dropped counted" 2 (Obs.Log.dropped log);
  Obs.Log.clear log;
  Alcotest.(check (list (float 0.0))) "clear empties" [] (times ());
  Alcotest.(check int) "clear keeps the drop count" 2 (Obs.Log.dropped log)

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Log.create: capacity must be positive") (fun () ->
      ignore (Obs.Log.create ~capacity:0 ~clock:(fun () -> 0.0) ()))

(* {1 Log} *)

let fake_clock () =
  let now = ref 0.0 in
  ( (fun () -> !now),
    fun t -> now := t )

let finish_ev i =
  Obs.Event.Invoke_finish
    {
      fn_id = Printf.sprintf "fn-%d" i;
      path = (if i mod 2 = 0 then Obs.Event.Hot else Obs.Event.Cold);
      queue = 0.0;
      deploy = 0.001;
      import = (if i mod 2 = 0 then 0.0 else 0.005);
      run = 0.002;
      total = 0.008;
      ok = i mod 5 <> 0;
    }

let test_log_jsonl_roundtrip () =
  let clock, set = fake_clock () in
  let log = Obs.Log.create ~capacity:64 ~clock () in
  for i = 1 to 10 do
    set (float_of_int i);
    Obs.Log.emit log (finish_ev i)
  done;
  set 11.0;
  Obs.Log.emit log (Obs.Event.Oom_wake { free_bytes = 42L });
  let text = Obs.Log.to_jsonl log in
  Alcotest.(check int) "one line per event" 11
    (List.length
       (List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' text)));
  match Obs.Log.parse_jsonl text with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok records ->
      Alcotest.(check int) "all records back" 11 (List.length records);
      let times = List.map (fun r -> r.Obs.Log.time) records in
      Alcotest.(check (list (float 0.0))) "timestamps preserved"
        [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11. ]
        times

let test_log_parse_reports_line () =
  match Obs.Log.parse_jsonl "{\"ts\":1,\"type\":\"oom_wake\",\"free_bytes\":1}\nnot json\n" with
  | Ok _ -> Alcotest.fail "accepted bad line"
  | Error msg ->
      Alcotest.(check bool) "names the line" true (contains "line 2" msg)

let test_log_subscriber_outlives_ring () =
  let clock, set = fake_clock () in
  let log = Obs.Log.create ~capacity:2 ~clock () in
  let seen = ref 0 in
  Obs.Log.subscribe log (fun _ -> incr seen);
  for i = 1 to 50 do
    set (float_of_int i);
    Obs.Log.emit log (finish_ev i)
  done;
  Alcotest.(check int) "subscriber saw every event" 50 !seen;
  Alcotest.(check int) "ring kept only capacity" 2
    (List.length (Obs.Log.records log));
  Alcotest.(check int) "emitted counts all" 50 (Obs.Log.emitted log);
  Alcotest.(check int) "dropped counts evictions" 48 (Obs.Log.dropped log)

(* Model-based property: random emits and clears against a log of
   capacity 1–8 agree with a reference list model — the retained records
   (directly and through JSONL), [emitted] and [dropped] — the on_drop
   hook fires once per eviction, and every subscriber sees every event,
   in order, across wraparound. *)
type log_op = Emit of int | Clear

let log_event k =
  match k mod 3 with
  | 0 -> Obs.Event.Cow_fault { uc_id = k }
  | 1 -> Obs.Event.Oom_wake { free_bytes = Int64.of_int k }
  | _ -> Obs.Event.Invoke_start { fn_id = Printf.sprintf "fn-%d" k }

let record_json (r : Obs.Log.record) =
  Obs.Json.to_string (Obs.Event.to_json ~time:r.time r.ev)

let log_ops_arb =
  let op =
    QCheck.Gen.(
      frequency
        [ (9, map (fun k -> Emit k) (int_range 0 999)); (1, return Clear) ])
  in
  let print (capacity, ops) =
    Printf.sprintf "capacity %d: %s" capacity
      (String.concat " "
         (List.map
            (function Emit k -> string_of_int k | Clear -> "clear")
            ops))
  in
  QCheck.make ~print
    QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 0 40) op))

let log_matches_model =
  QCheck.Test.make ~name:"matches a list model"
    ~count:300 log_ops_arb (fun (capacity, ops) ->
      let now = ref 0.0 in
      let log = Obs.Log.create ~capacity ~clock:(fun () -> !now) () in
      let drops = ref 0 in
      Obs.Log.set_on_drop log (fun () -> incr drops);
      let seen_a = ref [] and seen_b = ref [] in
      Obs.Log.subscribe log (fun r -> seen_a := record_json r :: !seen_a);
      Obs.Log.subscribe log (fun r -> seen_b := record_json r :: !seen_b);
      (* The model: retained and all-emitted records, newest first. *)
      let retained = ref [] and all = ref [] and dropped = ref 0 in
      List.iteri
        (fun step op ->
          match op with
          | Clear ->
              Obs.Log.clear log;
              retained := []
          | Emit k ->
              now := float_of_int step /. 4.0;
              let ev = log_event k in
              Obs.Log.emit log ev;
              let j = record_json { Obs.Log.time = !now; ev } in
              all := j :: !all;
              retained := j :: !retained;
              if List.length !retained > capacity then begin
                retained := List.filteri (fun i _ -> i < capacity) !retained;
                incr dropped
              end)
        ops;
      let expect what ok = if not ok then QCheck.Test.fail_reportf "%s" what in
      let retained = List.rev !retained and all = List.rev !all in
      expect "records" (List.map record_json (Obs.Log.records log) = retained);
      (match Obs.Log.parse_jsonl (Obs.Log.to_jsonl log) with
      | Ok rs -> expect "jsonl round-trip" (List.map record_json rs = retained)
      | Error e -> QCheck.Test.fail_reportf "parse_jsonl: %s" e);
      expect "emitted" (Obs.Log.emitted log = List.length all);
      expect "dropped" (Obs.Log.dropped log = !dropped);
      expect "on_drop count" (!drops = !dropped);
      expect "first subscriber" (List.rev !seen_a = all);
      expect "second subscriber" (List.rev !seen_b = all);
      true)

(* The zero-alloc contract of the event log, in the style of test_sim's
   "zero-alloc dispatch": once the window has wrapped, emitting a
   preallocated event with no subscriber stores into the window and
   allocates nothing on the major heap, and on the minor heap at most
   the clock reading's float box (2 words) per emit. The minor heap is
   emptied before the loop and collected after it, so anything the
   window retained from the loop would be promoted and counted. *)
let test_log_zero_alloc_emit () =
  let tick = ref 0 in
  let clock () =
    incr tick;
    float_of_int !tick
  in
  let log = Obs.Log.create ~capacity:64 ~clock () in
  let ev = Obs.Event.Cow_fault { uc_id = 7 } in
  for _ = 1 to 200 do
    Obs.Log.emit log ev
  done;
  let measured = 10_000 in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  (* Readings are kept unboxed, so the measurement itself leaves nothing
     live on the minor heap for the final collection to promote. *)
  let marks = Float.Array.make 3 0.0 in
  Gc.minor ();
  Float.Array.set marks 0 (major_words ());
  Float.Array.set marks 1 (Gc.minor_words ());
  for _ = 1 to measured do
    Obs.Log.emit log ev
  done;
  Float.Array.set marks 2 (Gc.minor_words ());
  Gc.minor ();
  let major = major_words () -. Float.Array.get marks 0
  and minor = Float.Array.get marks 2 -. Float.Array.get marks 1 in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "major words across %d emits" measured)
    0.0 major;
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 minor words per emit (%.0f across %d)" minor
       measured)
    true
    (minor <= 2.0 *. float_of_int measured);
  Alcotest.(check int) "window wrapped" (200 + measured - 64)
    (Obs.Log.dropped log)

(* {1 Metrics} *)

let test_metrics_counters_and_labels () =
  let m = Obs.Metrics.create () in
  let a = Obs.Metrics.counter m ~labels:[ ("path", "cold") ] "inv" in
  let b = Obs.Metrics.counter m ~labels:[ ("path", "hot") ] "inv" in
  Obs.Metrics.inc a;
  Obs.Metrics.inc ~by:4 b;
  (* Same (name, labels) returns the same instrument; label order is
     canonicalised. *)
  let a' = Obs.Metrics.counter m ~labels:[ ("path", "cold") ] "inv" in
  Obs.Metrics.inc a';
  Alcotest.(check int) "shared handle" 2 (Obs.Metrics.value a);
  Alcotest.(check int) "sum all" 6 (Obs.Metrics.sum_counters m "inv");
  Alcotest.(check int) "sum filtered" 4
    (Obs.Metrics.sum_counters m ~where:[ ("path", "hot") ] "inv");
  Alcotest.(check int) "sum missing" 0 (Obs.Metrics.sum_counters m "nope");
  Alcotest.check_raises "negative inc"
    (Invalid_argument "Metrics.inc: counters only go up") (fun () ->
      Obs.Metrics.inc ~by:(-1) a)

let test_metrics_kind_mismatch () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x");
  Alcotest.(check bool) "gauge over counter raises" true
    (try
       ignore (Obs.Metrics.gauge m "x");
       false
     with Invalid_argument _ -> true)

let test_metrics_histogram () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  for i = 1 to 100 do
    Obs.Metrics.observe h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 100 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "mean" 0.0505 (Obs.Metrics.hist_mean h);
  (* Quantiles are quantised to log-bin upper bounds (10 bins/decade),
     so allow one bin of slack around the true values. *)
  let p50 = Obs.Metrics.hist_quantile h 0.5 in
  Alcotest.(check bool) "p50 within a bin of the median" true
    (p50 >= 0.05 && p50 < 0.07);
  let p99 = Obs.Metrics.hist_quantile h 0.99 in
  Alcotest.(check bool) "p99 near max" true (p99 > 0.08 && p99 <= 0.1)

(* Property: bucketed quantiles track exact order statistics within the
   log-bin quantisation bound. With 30 bins/decade a bin spans a factor
   of 10^(1/30) ~ 1.0798, and [hist_quantile] answers the upper bound of
   the bin holding the rank-th smallest sample (clamped into the
   observed [min, max]), so for every q:
   exact <= approx <= exact * 1.08. *)
let hist_quantiles_track_exact =
  QCheck.Test.make ~name:"bucketed p50/p99/p999 within 8% of exact"
    ~count:200
    (* Millis in [1, 100_000] mapped to seconds in [1e-3, 1e2]: safely
       inside the histogram's default [1e-4, 1e3] range, so no
       saturation bin distorts the bound. *)
    QCheck.(list_of_size Gen.(int_range 1 400) (int_range 1 100_000))
    (fun millis ->
      let xs = List.map (fun m -> float_of_int m /. 1000.0) millis in
      let m = Obs.Metrics.create () in
      let h = Obs.Metrics.histogram m "q" in
      List.iter (Obs.Metrics.observe h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let exact =
            sorted.(int_of_float (Float.round (q *. float_of_int (n - 1))))
          in
          let approx = Obs.Metrics.hist_quantile h q in
          approx >= exact -. 1e-12 && approx <= (exact *. 1.08) +. 1e-12)
        [ 0.5; 0.9; 0.99; 0.999 ])

let test_metrics_hist_json_roundtrip () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  List.iter (Obs.Metrics.observe h) [ 0.0012; 0.0012; 0.034; 0.5; 2.25; 0.08 ];
  let s = Obs.Json.to_string (Obs.Metrics.hist_to_json h) in
  let h' =
    match Obs.Json.of_string s with
    | Error e -> Alcotest.failf "reparse failed: %s" e
    | Ok j -> (
        match Obs.Metrics.hist_of_json j with
        | Error e -> Alcotest.failf "decode failed: %s" e
        | Ok h' -> h')
  in
  Alcotest.(check int) "count survives" (Obs.Metrics.hist_count h)
    (Obs.Metrics.hist_count h');
  Alcotest.(check (float 1e-12)) "mean survives" (Obs.Metrics.hist_mean h)
    (Obs.Metrics.hist_mean h');
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "q%.3f survives" q)
        (Obs.Metrics.hist_quantile h q)
        (Obs.Metrics.hist_quantile h' q))
    [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ];
  Alcotest.(check string) "re-encoding is stable" s
    (Obs.Json.to_string (Obs.Metrics.hist_to_json h'))

let test_metrics_hist_merge () =
  let m = Obs.Metrics.create () in
  let a = Obs.Metrics.histogram m "a" and b = Obs.Metrics.histogram m "b" in
  let merged = Obs.Metrics.histogram m "merged" in
  let xs = [ 0.001; 0.002; 0.04 ] and ys = [ 0.3; 0.9; 7.5; 0.0015 ] in
  List.iter (Obs.Metrics.observe a) xs;
  List.iter (Obs.Metrics.observe b) ys;
  List.iter (Obs.Metrics.observe merged) (xs @ ys);
  Obs.Metrics.merge_hist a ~from:b;
  Alcotest.(check int) "merged count" (Obs.Metrics.hist_count merged)
    (Obs.Metrics.hist_count a);
  Alcotest.(check (float 1e-12)) "merged mean" (Obs.Metrics.hist_mean merged)
    (Obs.Metrics.hist_mean a);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "merged q%.3f" q)
        (Obs.Metrics.hist_quantile merged q)
        (Obs.Metrics.hist_quantile a q))
    [ 0.5; 0.99; 0.999 ]

(* {1 Chrome trace-event encoding} *)

let test_chrome_document_structure () =
  let events =
    [
      Obs.Chrome.Process_name { pid = 0; name = "cold" };
      Obs.Chrome.Thread_name { pid = 0; tid = 1; name = "sim pid 1" };
      Obs.Chrome.Complete
        {
          name = "node.invoke";
          cat = "sim";
          ts_us = 1500.0;
          dur_us = 7300.5;
          pid = 0;
          tid = 1;
          args = [ ("span_id", Obs.Json.Int 1) ];
        };
      Obs.Chrome.Instant
        {
          name = "node.path cold";
          cat = "sim";
          ts_us = 1500.0;
          pid = 0;
          tid = 1;
          args = [ ("span_id", Obs.Json.Int 2); ("parent_id", Obs.Json.Int 1) ];
        };
    ]
  in
  let doc =
    match Obs.Json.of_string (Obs.Chrome.to_string events) with
    | Error e -> Alcotest.failf "chrome output does not parse: %s" e
    | Ok j -> j
  in
  let field name = function
    | Obs.Json.Obj kvs -> List.assoc_opt name kvs
    | _ -> None
  in
  let rows =
    match field "traceEvents" doc with
    | Some (Obs.Json.List rows) -> rows
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check int) "one row per event" (List.length events)
    (List.length rows);
  (match field "displayTimeUnit" doc with
  | Some (Obs.Json.String "ms") -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let phases =
    List.map
      (fun row ->
        (* Every event carries the required keys. *)
        (match field "name" row with
        | Some (Obs.Json.String _) -> ()
        | _ -> Alcotest.fail "name missing");
        (match field "ts" row with
        | Some (Obs.Json.Float _) | Some (Obs.Json.Int _) -> ()
        | _ -> Alcotest.fail "ts missing");
        (match field "pid" row with
        | Some (Obs.Json.Int 0) -> ()
        | _ -> Alcotest.fail "pid missing");
        match field "ph" row with
        | Some (Obs.Json.String ph) -> ph
        | _ -> Alcotest.fail "ph missing")
      rows
  in
  Alcotest.(check (list string)) "phases" [ "M"; "M"; "X"; "i" ] phases;
  (* The complete event keeps its duration. *)
  match List.nth rows 2 |> field "dur" with
  | Some (Obs.Json.Float d) -> Alcotest.(check (float 1e-9)) "dur" 7300.5 d
  | _ -> Alcotest.fail "complete event lost dur"

let test_metrics_dump_and_render () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.inc (Obs.Metrics.counter m ~labels:[ ("k", "b") ] "c");
  Obs.Metrics.inc (Obs.Metrics.counter m ~labels:[ ("k", "a") ] "c");
  Obs.Metrics.set_gauge (Obs.Metrics.gauge m "g") 1.5;
  let dump = Obs.Metrics.dump m in
  Alcotest.(check int) "three instruments" 3 (List.length dump);
  (match dump with
  | (n1, l1, _) :: (n2, l2, _) :: _ ->
      Alcotest.(check bool) "sorted" true ((n1, l1) <= (n2, l2))
  | _ -> Alcotest.fail "dump too short");
  Alcotest.(check bool) "render mentions instruments" true
    (contains "c" (Obs.Metrics.render m))

(* {1 Breakdown} *)

let test_breakdown_aggregates_beyond_ring () =
  let clock, set = fake_clock () in
  (* Tiny ring: the aggregator must still see everything (it subscribes
     to the bus instead of reading the ring). *)
  let log = Obs.Log.create ~capacity:2 ~clock () in
  let bd = Obs.Breakdown.attach log in
  for i = 1 to 40 do
    set (float_of_int i);
    Obs.Log.emit log (finish_ev i)
  done;
  (match Obs.Breakdown.overall bd with
  | None -> Alcotest.fail "no overall breakdown"
  | Some o ->
      Alcotest.(check int) "all invocations folded" 40 o.Obs.Breakdown.n;
      Alcotest.(check (float 1e-9)) "deploy mean" 0.001 o.Obs.Breakdown.deploy);
  (match Obs.Breakdown.per_path bd Obs.Event.Hot with
  | None -> Alcotest.fail "no hot breakdown"
  | Some h ->
      Alcotest.(check int) "hot count" 20 h.Obs.Breakdown.n;
      Alcotest.(check (float 1e-9)) "hot import zero" 0.0 h.Obs.Breakdown.import);
  (match Obs.Breakdown.per_path bd Obs.Event.Cold with
  | None -> Alcotest.fail "no cold breakdown"
  | Some c ->
      Alcotest.(check (float 1e-9)) "cold import" 0.005 c.Obs.Breakdown.import);
  Alcotest.(check int) "errors counted" 8 (Obs.Breakdown.errors bd);
  Alcotest.(check bool) "warm path unseen" true
    (Obs.Breakdown.per_path bd Obs.Event.Warm = None)

let finish ~path ~total ~ok =
  Obs.Event.Invoke_finish
    {
      fn_id = "fn-x";
      path;
      queue = 0.0;
      deploy = total /. 4.0;
      import = 0.0;
      run = total /. 4.0;
      total;
      ok;
    }

let fresh_breakdown () =
  let clock, set = fake_clock () in
  let log = Obs.Log.create ~capacity:16 ~clock () in
  (Obs.Breakdown.attach log, log, set)

let test_breakdown_path_classification () =
  (* Each path accumulates independently: cold/warm/hot events must not
     bleed into each other's buckets, and errors fold in regardless of
     path. *)
  let bd, log, set = fresh_breakdown () in
  let emit i path total ok =
    set (float_of_int i);
    Obs.Log.emit log (finish ~path ~total ~ok)
  in
  emit 1 Obs.Event.Cold 0.008 true;
  emit 2 Obs.Event.Cold 0.006 true;
  emit 3 Obs.Event.Warm 0.004 true;
  emit 4 Obs.Event.Hot 0.001 false;
  emit 5 Obs.Event.Hot 0.001 true;
  let n path =
    match Obs.Breakdown.per_path bd path with
    | None -> 0
    | Some p -> p.Obs.Breakdown.n
  in
  Alcotest.(check int) "cold bucket" 2 (n Obs.Event.Cold);
  Alcotest.(check int) "warm bucket" 1 (n Obs.Event.Warm);
  Alcotest.(check int) "hot bucket" 2 (n Obs.Event.Hot);
  (match Obs.Breakdown.per_path bd Obs.Event.Cold with
  | None -> Alcotest.fail "cold missing"
  | Some c ->
      Alcotest.(check (float 1e-9)) "cold total mean" 0.007 c.Obs.Breakdown.total);
  (match Obs.Breakdown.overall bd with
  | None -> Alcotest.fail "overall missing"
  | Some o -> Alcotest.(check int) "overall folds all paths" 5 o.Obs.Breakdown.n);
  Alcotest.(check int) "error folded despite hot path" 1
    (Obs.Breakdown.errors bd)

let test_breakdown_empty_buckets () =
  (* No invocations at all: every accessor must say None / 0 rather than
     fabricate a zero row. *)
  let bd, _log, _set = fresh_breakdown () in
  List.iter
    (fun path ->
      Alcotest.(check bool) "per_path empty" true
        (Obs.Breakdown.per_path bd path = None);
      Alcotest.(check bool) "tails empty" true
        (Obs.Breakdown.tails bd path = None))
    [ Obs.Event.Cold; Obs.Event.Warm; Obs.Event.Hot ];
  Alcotest.(check bool) "overall empty" true (Obs.Breakdown.overall bd = None);
  Alcotest.(check bool) "overall tails empty" true
    (Obs.Breakdown.overall_tails bd = None);
  Alcotest.(check int) "no errors" 0 (Obs.Breakdown.errors bd)

let test_breakdown_single_sample_tails () =
  (* One invocation: the histogram has a single populated bin, and the
     min/max clamp must collapse every quantile — p50 through p999 — to
     exactly that observation instead of a bin edge. *)
  let bd, log, set = fresh_breakdown () in
  set 1.0;
  Obs.Log.emit log (finish ~path:Obs.Event.Warm ~total:0.0042 ~ok:true);
  (match Obs.Breakdown.tails bd Obs.Event.Warm with
  | None -> Alcotest.fail "single-sample tails missing"
  | Some t ->
      List.iter
        (fun (label, v) ->
          Alcotest.(check (float 1e-12)) label 0.0042 v)
        [
          ("p50", t.Obs.Breakdown.p50);
          ("p90", t.Obs.Breakdown.p90);
          ("p99", t.Obs.Breakdown.p99);
          ("p999", t.Obs.Breakdown.p999);
        ]);
  (match Obs.Breakdown.overall_tails bd with
  | None -> Alcotest.fail "overall single-sample tails missing"
  | Some t ->
      Alcotest.(check (float 1e-12)) "overall p999 clamped" 0.0042
        t.Obs.Breakdown.p999);
  Alcotest.(check bool) "other paths still empty" true
    (Obs.Breakdown.tails bd Obs.Event.Cold = None)

let test_breakdown_tails_ordered () =
  (* Quantiles of a spread-out latency population must be monotone and
     clamped into the observed extrema. *)
  let bd, log, set = fresh_breakdown () in
  for i = 1 to 1000 do
    set (float_of_int i);
    Obs.Log.emit log
      (finish ~path:Obs.Event.Cold ~total:(float_of_int i *. 1e-4) ~ok:true)
  done;
  match Obs.Breakdown.tails bd Obs.Event.Cold with
  | None -> Alcotest.fail "tails missing"
  | Some t ->
      Alcotest.(check bool) "monotone" true
        (t.Obs.Breakdown.p50 <= t.Obs.Breakdown.p90
        && t.Obs.Breakdown.p90 <= t.Obs.Breakdown.p99
        && t.Obs.Breakdown.p99 <= t.Obs.Breakdown.p999);
      Alcotest.(check bool) "inside observed range" true
        (t.Obs.Breakdown.p50 >= 1e-4 && t.Obs.Breakdown.p999 <= 0.1);
      (* ~8% histogram quantization: p50 of a uniform 0.1ms..100ms
         population must land near 50ms. *)
      Alcotest.(check bool) "p50 near true median" true
        (t.Obs.Breakdown.p50 > 0.04 && t.Obs.Breakdown.p50 < 0.06)

(* {1 End to end: a real node workload round-trips through JSONL} *)

let test_node_event_stream_roundtrips () =
  let engine = Sim.Engine.create ~seed:3L () in
  let out = ref "" in
  Sim.Engine.spawn engine ~name:"obs-e2e" (fun () ->
      let env = Seuss.Osenv.create engine in
      let node = Seuss.Node.create env in
      Seuss.Node.start node;
      for i = 1 to 6 do
        match
          Seuss.Node.invoke node
            {
              Seuss.Node.fn_id = Printf.sprintf "fn-%d" (i mod 2);
              runtime = Unikernel.Image.Node;
              source = "function main(args) { return {}; }";
            }
            ~args:"{}"
        with
        | Ok _, _ -> ()
        | Error _, _ -> Alcotest.fail "invocation failed"
      done;
      out := Obs.Log.to_jsonl env.Seuss.Osenv.log);
  Sim.Engine.run engine;
  match Obs.Log.parse_jsonl !out with
  | Error e -> Alcotest.failf "node JSONL does not round-trip: %s" e
  | Ok records ->
      let count name =
        List.length
          (List.filter
             (fun r -> Obs.Event.type_name r.Obs.Log.ev = name)
             records)
      in
      Alcotest.(check int) "every invocation started" 6 (count "invoke_start");
      Alcotest.(check int) "every invocation finished" 6 (count "invoke_finish");
      (* base snapshots + 2 function snapshots *)
      Alcotest.(check bool) "snapshots captured" true
        (count "snapshot_capture" >= 3);
      Alcotest.(check bool) "cow faults observed" true (count "cow_fault" > 0);
      let mono =
        let rec go = function
          | a :: (b :: _ as rest) ->
              a.Obs.Log.time <= b.Obs.Log.time && go rest
          | _ -> true
        in
        go records
      in
      Alcotest.(check bool) "timestamps monotone" true mono

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "json",
        [
          case "roundtrip" test_json_roundtrip;
          case "rejects garbage" test_json_rejects_garbage;
          case "events roundtrip" test_event_roundtrip_all_variants;
        ] );
      ( "ring",
        [
          case "overwrites oldest" test_ring_overwrites_oldest;
          case "rejects bad capacity" test_ring_rejects_bad_capacity;
        ] );
      ( "log",
        [
          case "jsonl roundtrip" test_log_jsonl_roundtrip;
          case "parse names bad line" test_log_parse_reports_line;
          case "subscriber outlives ring" test_log_subscriber_outlives_ring;
          case "zero-alloc emit" test_log_zero_alloc_emit;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| base_seed |])
            log_matches_model;
        ] );
      ( "metrics",
        [
          case "counters and labels" test_metrics_counters_and_labels;
          case "kind mismatch" test_metrics_kind_mismatch;
          case "histogram" test_metrics_histogram;
          case "dump and render" test_metrics_dump_and_render;
          case "hist JSON roundtrip" test_metrics_hist_json_roundtrip;
          case "hist merge" test_metrics_hist_merge;
          QCheck_alcotest.to_alcotest hist_quantiles_track_exact;
        ] );
      ("chrome", [ case "document structure" test_chrome_document_structure ]);
      ( "breakdown",
        [
          case "aggregates beyond ring" test_breakdown_aggregates_beyond_ring;
          case "path classification" test_breakdown_path_classification;
          case "empty buckets" test_breakdown_empty_buckets;
          case "single-sample tails" test_breakdown_single_sample_tails;
          case "tails ordered and clamped" test_breakdown_tails_ordered;
        ] );
      ("end_to_end", [ case "node JSONL roundtrip" test_node_event_stream_roundtrips ]);
    ]
