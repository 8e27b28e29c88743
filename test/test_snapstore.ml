(* Property/differential battery for the content-addressed snapshot
   store (lib/seuss/snapstore.ml), driven end-to-end through real nodes:
   every schedule boots a SEUSS node inside the simulator, invokes a
   small function corpus under a PRNG-drawn cache budget and eviction
   policy, and checks the full invariant set after every operation —
   the store's own self-check, exact frame refcounts recomputed from a
   page-table walk of every live snapshot, the byte budget, and the
   node-mirror equality. Schedules are a deterministic function of the
   seed (Sim.Prng, same convention as test_mem_prop), so a failure
   report names the exact (seed, schedule, step) to replay.

   Differential families:
   - an armed store under an effectively unlimited budget must serve the
     same schedule with the same (path, result) sequence as an unarmed
     node, and leave every function snapshot with an identical page-table
     shape (same vpns and flags; only frame ids may differ — that is
     what dedup rewrites);
   - SEUSS_SNAP_CACHE=0 must be bit-identical to unset (the disarmed
     default) for a harness-built experiment.

   SEUSS_PROP_SEED overrides the base seed (CI rotates it). *)

module F = Mem.Frame
module PT = Mem.Page_table

let base_seed = Option.value (Knobs.prop_seed ()) ~default:23L

let schedules = 200

(* Sources repeat every 5 ranks so distinct functions genuinely share
   their compiled-bytecode tail pages, not just the runtime image. *)
let prop_fn k =
  {
    Seuss.Node.fn_id = Printf.sprintf "prop-%d" k;
    runtime = Unikernel.Image.Node;
    source =
      Printf.sprintf "function main(args) { return {fn: %d}; }" (k mod 5);
  }

let path_label = function
  | Seuss.Node.Cold -> "cold"
  | Seuss.Node.Warm -> "warm"
  | Seuss.Node.Hot -> "hot"

(* {1 Invariant checks} *)

(* Every live snapshot table: bases plus the function-snapshot mirror.
   With the idle-UC cache off the node destroys each serving UC before
   [invoke] returns, so at an op boundary these tables are the only
   frame holders in the environment. *)
let live_tables node =
  let bases =
    List.filter_map
      (fun img -> Seuss.Node.base_snapshot node img.Unikernel.Image.runtime)
      (Seuss.Node.config node).Seuss.Config.runtimes
  in
  let fns = List.map snd (Seuss.Node.snapshot_inventory node) in
  List.map (fun s -> s.Seuss.Snapshot.table) (bases @ fns)

let check_refcounts ~ctx env node =
  let frames = env.Seuss.Osenv.frames in
  let expected = PT.expected_refcounts (live_tables node) in
  let live = ref 0 in
  Array.iteri
    (fun fr rc ->
      if rc > 0 then begin
        incr live;
        let actual = F.refcount frames fr in
        if actual <> rc then
          Alcotest.failf "%s: frame %d refcount %d, tables imply %d" ctx fr
            actual rc
      end)
    expected;
  let used = F.used_frames frames in
  if !live <> used then
    Alcotest.failf "%s: tables reference %d frames, allocator holds %d" ctx
      !live used

let check_node ~ctx env node =
  (match Seuss.Node.snapstore node with
  | None -> ()
  | Some store ->
      (match Seuss.Snapstore.check store with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: store self-check: %s" ctx
            (String.concat "; " vs));
      if
        Seuss.Snapstore.member_count store <> Seuss.Node.snapshot_count node
      then
        Alcotest.failf "%s: store has %d members, node mirror has %d" ctx
          (Seuss.Snapstore.member_count store)
          (Seuss.Node.snapshot_count node);
      (* Schedules are serial, so nothing is pinned between ops and the
         budget must bind exactly (eviction happens inside insert). *)
      let resident = Seuss.Snapstore.resident_bytes store
      and budget = Seuss.Snapstore.budget_bytes store in
      if Int64.compare resident budget > 0 then
        Alcotest.failf "%s: resident %Ld bytes over budget %Ld" ctx resident
          budget);
  check_refcounts ~ctx env node

(* {1 Random schedules} *)

(* One schedule: a fresh node under a drawn (budget, policy), a random
   invoke/probe sequence over a small corpus, the full invariant set
   after every operation, then an orderly shutdown that must drain every
   frame. Tiny budgets force eviction (including of a snapshot captured
   moments before); the 0 draw runs the same schedule disarmed so the
   mirror-only paths stay covered by the same checks. *)
let run_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (sched * 7919))) in
  let budget =
    match Sim.Prng.int prng 100 with
    | r when r < 15 ->
        (* below a single member's footprint: immediate self-eviction *)
        Int64.of_int (262_144 + Sim.Prng.int prng 786_432)
    | r when r < 65 ->
        (* partial: a few members fit, the rest fight for residency *)
        Int64.of_int (Mem.Mconfig.mib (2 + Sim.Prng.int prng 6))
    | r when r < 90 -> Int64.of_int (Mem.Mconfig.mib 64)
    | _ -> 0L
  in
  let policy =
    if Sim.Prng.int prng 2 = 0 then Seuss.Config.Snap_lru
    else Seuss.Config.Snap_ws
  in
  let functions = 4 + Sim.Prng.int prng 5 in
  let steps = 10 + Sim.Prng.int prng 11 in
  Experiments.Harness.run_sim ~seed:(Int64.add seed (Int64.of_int sched)) (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let config =
        {
          Seuss.Config.default with
          Seuss.Config.cache_idle_ucs = false;
          snapshot_cache_bytes = budget;
          snapshot_cache_policy = policy;
        }
      in
      let node = Seuss.Node.create ~config env in
      Seuss.Node.start node;
      for step = 1 to steps do
        let ctx =
          Printf.sprintf "seed %Ld sched %d step %d (budget %Ld)" seed sched
            step budget
        in
        (match Sim.Prng.int prng 100 with
        | r when r < 80 -> (
            let fn = prop_fn (Sim.Prng.int prng functions) in
            match Seuss.Node.invoke node fn ~args:"{}" with
            | Ok _, _ -> ()
            | Error _, _ ->
                Alcotest.failf "%s: invocation of %s failed" ctx
                  fn.Seuss.Node.fn_id)
        | r when r < 92 ->
            (* Policy-neutral probes must not disturb any checked state. *)
            ignore (Seuss.Node.snapshot_inventory node);
            ignore (Seuss.Node.snapshot_count node);
            Option.iter
              (fun s -> ignore (Seuss.Snapstore.members s))
              (Seuss.Node.snapstore node)
        | _ -> ignore (Seuss.Node.reclaim_idle_ucs node));
        check_node ~ctx env node
      done;
      Seuss.Node.shutdown node;
      let used = F.used_frames env.Seuss.Osenv.frames in
      if used <> 0 then
        Alcotest.failf "seed %Ld sched %d: %d frames leaked after shutdown"
          seed sched used)

let test_random_schedules () =
  for sched = 0 to schedules - 1 do
    run_schedule ~seed:base_seed ~sched
  done

(* {1 Differential: armed (unlimited) vs unarmed} *)

(* The page-table shape of a snapshot with frame ids erased: dedup may
   only rewrite which physical frame backs a page, never which pages
   exist or their flags. *)
let table_shape snap =
  List.sort compare
    (PT.fold_present snap.Seuss.Snapshot.table ~init:[]
       ~f:(fun acc ~vpn e ->
         ( vpn,
           PT.Entry.writable e,
           PT.Entry.cow e,
           PT.Entry.dirty e,
           PT.Entry.accessed e )
         :: acc))

let run_differential_world ~armed ~ops =
  Experiments.Harness.run_sim ~seed:31L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let config =
        {
          Seuss.Config.default with
          Seuss.Config.cache_idle_ucs = false;
          snapshot_cache_bytes =
            (if armed then Int64.of_int (Mem.Mconfig.mib 4096) else 0L);
        }
      in
      let node = Seuss.Node.create ~config env in
      Seuss.Node.start node;
      let observed =
        List.map
          (fun k ->
            let fn = prop_fn k in
            let result, path = Seuss.Node.invoke node fn ~args:"{}" in
            ( fn.Seuss.Node.fn_id,
              path_label path,
              match result with Ok v -> Ok v | Error _ -> Error () ))
          ops
      in
      let shapes =
        List.map
          (fun (fn_id, snap) -> (fn_id, table_shape snap))
          (Seuss.Node.snapshot_inventory node)
      in
      (match Seuss.Node.snapstore node with
      | Some store ->
          if not armed then Alcotest.fail "unarmed node grew a store";
          Alcotest.(check int) "no evictions under the unlimited budget" 0
            (Seuss.Snapstore.evictions store)
      | None -> if armed then Alcotest.fail "armed node has no store");
      (observed, shapes))

let test_armed_unlimited_matches_unarmed () =
  let prng = Sim.Prng.create (Int64.logxor base_seed 0xA11FL) in
  let ops = List.init 40 (fun _ -> Sim.Prng.int prng 6) in
  let armed_obs, armed_shapes = run_differential_world ~armed:true ~ops in
  let plain_obs, plain_shapes = run_differential_world ~armed:false ~ops in
  List.iter2
    (fun (fn_a, path_a, res_a) (fn_p, path_p, res_p) ->
      Alcotest.(check string) "same fn order" fn_p fn_a;
      Alcotest.(check string) (fn_a ^ " same path") path_p path_a;
      if res_a <> res_p then Alcotest.failf "%s: results diverged" fn_a)
    armed_obs plain_obs;
  Alcotest.(check int) "same snapshot inventory size"
    (List.length plain_shapes) (List.length armed_shapes);
  List.iter2
    (fun (fn_a, shape_a) (fn_p, shape_p) ->
      Alcotest.(check string) "same inventory order" fn_p fn_a;
      if shape_a <> shape_p then
        Alcotest.failf
          "%s: dedup changed the snapshot's page-table shape (vpns/flags)"
          fn_a)
    armed_shapes plain_shapes

(* The env hook's transparency contract: SEUSS_SNAP_CACHE=0 must be
   bit-identical to unset for a harness-built experiment (the CI job
   checks the same property over the full figures). *)
let test_env_hook_zero_is_identity () =
  Unix.putenv "SEUSS_SNAP_CACHE" "";
  let baseline = Experiments.Fig4.run ~set_sizes:[ 32 ] ~client_threads:8 () in
  Unix.putenv "SEUSS_SNAP_CACHE" "0";
  let zeroed = Experiments.Fig4.run ~set_sizes:[ 32 ] ~client_threads:8 () in
  Unix.putenv "SEUSS_SNAP_CACHE" "";
  Alcotest.(check bool) "SEUSS_SNAP_CACHE=0 run structurally identical" true
    (baseline = zeroed);
  Alcotest.(check string) "rendered output identical"
    (Experiments.Fig4.render baseline)
    (Experiments.Fig4.render zeroed)

(* {1 Dedup and eviction scenarios} *)

let scenario_config ~budget =
  {
    Seuss.Config.default with
    Seuss.Config.cache_idle_ucs = false;
    snapshot_cache_bytes = budget;
  }

let invoke_ok node fn =
  match Seuss.Node.invoke node fn ~args:"{}" with
  | Ok _, path -> path
  | Error _, _ ->
      Alcotest.failf "invocation of %s failed" fn.Seuss.Node.fn_id

let test_dedup_shares_content () =
  Experiments.Harness.run_sim ~seed:37L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Seuss.Node.create
          ~config:(scenario_config ~budget:(Int64.of_int (Mem.Mconfig.mib 4096)))
          env
      in
      Seuss.Node.start node;
      ignore (invoke_ok node (prop_fn 0));
      let store =
        match Seuss.Node.snapstore node with
        | Some s -> s
        | None -> Alcotest.fail "store not armed"
      in
      let unique_after_first = Seuss.Snapstore.pages_unique store in
      (* Different source: shares everything but the bytecode tail. *)
      ignore (invoke_ok node (prop_fn 1));
      let unique_after_second = Seuss.Snapstore.pages_unique store in
      Alcotest.(check bool) "second member is almost entirely shared" true
        (unique_after_second - unique_after_first
        < unique_after_first / 10);
      (* Same source as fn 1 (ranks repeat mod 5): even the tail shares. *)
      ignore (invoke_ok node (prop_fn 6));
      let unique_after_clone = Seuss.Snapstore.pages_unique store in
      Alcotest.(check bool) "same-source member shares its bytecode tail" true
        (unique_after_clone - unique_after_second
        < unique_after_second - unique_after_first);
      Alcotest.(check bool)
        (Printf.sprintf "dedup ratio %.2f > 1.5"
           (Seuss.Snapstore.dedup_ratio store))
        true
        (Seuss.Snapstore.dedup_ratio store > 1.5);
      Alcotest.(check bool) "index holds fewer pages than were inserted" true
        (Seuss.Snapstore.pages_unique store
        < Seuss.Snapstore.pages_inserted store);
      Seuss.Node.shutdown node;
      Alcotest.(check int) "drained" 0
        (F.used_frames env.Seuss.Osenv.frames))

(* Measure the residency of a two- and three-member store under no
   pressure, so the eviction scenarios can pick a budget that fits
   exactly two members. Deterministic: same seed, same op sequence. *)
let measure_residency () =
  Experiments.Harness.run_sim ~seed:41L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Seuss.Node.create
          ~config:(scenario_config ~budget:(Int64.of_int (Mem.Mconfig.mib 4096)))
          env
      in
      Seuss.Node.start node;
      let store =
        match Seuss.Node.snapstore node with
        | Some s -> s
        | None -> Alcotest.fail "store not armed"
      in
      ignore (invoke_ok node (prop_fn 0));
      ignore (invoke_ok node (prop_fn 1));
      let r2 = Seuss.Snapstore.resident_bytes store in
      ignore (invoke_ok node (prop_fn 2));
      let r3 = Seuss.Snapstore.resident_bytes store in
      Seuss.Node.shutdown node;
      (r2, r3))

let run_eviction_scenario ~policy =
  let r2, r3 = measure_residency () in
  Alcotest.(check bool) "third member costs bytes" true
    (Int64.compare r3 r2 > 0);
  Experiments.Harness.run_sim ~seed:41L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let config =
        { (scenario_config ~budget:r2) with snapshot_cache_policy = policy }
      in
      let node = Seuss.Node.create ~config env in
      Seuss.Node.start node;
      let store =
        match Seuss.Node.snapstore node with
        | Some s -> s
        | None -> Alcotest.fail "store not armed"
      in
      let evict_events = ref [] in
      Obs.Log.subscribe env.Seuss.Osenv.log (fun r ->
          match r.Obs.Log.ev with
          | Obs.Event.Snap_evict { fn_id; _ } ->
              evict_events := fn_id :: !evict_events
          | _ -> ());
      Alcotest.(check string) "fn0 cold" "cold"
        (path_label (invoke_ok node (prop_fn 0)));
      Alcotest.(check string) "fn1 cold" "cold"
        (path_label (invoke_ok node (prop_fn 1)));
      (* Touch fn0 so fn1 is the least recently used member. *)
      Alcotest.(check string) "fn0 warm" "warm"
        (path_label (invoke_ok node (prop_fn 0)));
      (* The third insert breaks the budget: fn1 must go. *)
      Alcotest.(check string) "fn2 cold" "cold"
        (path_label (invoke_ok node (prop_fn 2)));
      Alcotest.(check int) "one eviction" 1 (Seuss.Snapstore.evictions store);
      Alcotest.(check (list string)) "fn1 evicted" [ "prop-1" ] !evict_events;
      Alcotest.(check (list string)) "members are fn0 and fn2"
        [ "prop-0"; "prop-2" ]
        (List.map fst (Seuss.Snapstore.members store));
      Alcotest.(check int) "mirror follows the eviction" 2
        (Seuss.Node.snapshot_count node);
      Alcotest.(check bool) "budget holds after eviction" true
        (Int64.compare
           (Seuss.Snapstore.resident_bytes store)
           (Seuss.Snapstore.budget_bytes store)
        <= 0);
      (* Cold-boot fallback: the evicted function recompiles and is
         readmitted (evicting the new LRU member in turn). *)
      Alcotest.(check string) "evicted fn falls back to cold" "cold"
        (path_label (invoke_ok node (prop_fn 1)));
      Alcotest.(check int) "readmission evicts in turn" 2
        (Seuss.Snapstore.evictions store);
      (match Seuss.Snapstore.check store with
      | [] -> ()
      | vs -> Alcotest.failf "store self-check: %s" (String.concat "; " vs));
      Seuss.Node.shutdown node;
      Alcotest.(check int) "drained" 0
        (F.used_frames env.Seuss.Osenv.frames))

let test_lru_evicts_least_recent () = run_eviction_scenario ~policy:Seuss.Config.Snap_lru

(* Without recorded working sets every member scores equal under Ws, so
   the policy must fall back to the same deterministic recency order —
   this pins the tie-break rather than leaving it to chance. *)
let test_ws_without_sets_matches_lru () =
  run_eviction_scenario ~policy:Seuss.Config.Snap_ws

(* Two cold invocations whose inserts both overrun a tiny budget run
   their eviction sweeps concurrently. Each sweep yields while it burns
   eviction and destroy time; the victim must already be out of the
   store and marked deleted by then, or the other sweep picks the same
   snapshot and releases its page table a second time. *)
let test_concurrent_sweeps_evict_distinct_victims () =
  Experiments.Harness.run_sim ~seed:43L (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node =
        Seuss.Node.create
          ~config:(scenario_config ~budget:(Int64.of_int 262_144))
          env
      in
      Seuss.Node.start node;
      let store =
        match Seuss.Node.snapstore node with
        | Some s -> s
        | None -> Alcotest.fail "store not armed"
      in
      let pending = ref 2 in
      let both_done = Sim.Ivar.create () in
      List.iter
        (fun k ->
          Sim.Engine.spawn engine (fun () ->
              ignore (invoke_ok node (prop_fn k));
              decr pending;
              if !pending = 0 then Sim.Ivar.fill both_done ()))
        [ 0; 1 ];
      Sim.Ivar.read both_done;
      Alcotest.(check int) "both inserts were evicted" 2
        (Seuss.Snapstore.evictions store);
      (match Seuss.Snapstore.check store with
      | [] -> ()
      | vs -> Alcotest.failf "store self-check: %s" (String.concat "; " vs));
      Seuss.Node.shutdown node;
      Alcotest.(check int) "drained" 0
        (F.used_frames env.Seuss.Osenv.frames))

(* {1 Direct store fixtures} *)

(* A disarmed node supplies the environment and the Node.js base; the
   store under test is created over the same environment, so a test
   controls every insert, pin and lookup itself. Sources share one
   length, so every capture has the same delta shape and differs only
   in its bytecode tail. *)
let fixture_source k =
  Printf.sprintf "function main(args) { return {fn: %d}; }" (10 + k)

let capture env base ~name source =
  let uc = Seuss.Uc.deploy env base in
  if
    not
      (Seuss.Uc.connect uc && Seuss.Uc.send uc (Unikernel.Driver.Init source))
  then Alcotest.fail "fixture: cannot reach a fresh UC";
  match Seuss.Uc.await_breakpoint uc ~timeout:60.0 with
  | Some "compile-ok" ->
      let snap = Seuss.Uc.capture uc ~env ~name in
      Seuss.Uc.resume uc;
      Seuss.Uc.destroy uc;
      snap
  | _ -> Alcotest.failf "fixture: %s did not compile" name

let with_fixture ~seed f =
  Experiments.Harness.run_sim ~seed (fun engine ->
      let env = Experiments.Harness.make_seuss_env engine in
      let node = Seuss.Node.create ~config:(scenario_config ~budget:0L) env in
      Seuss.Node.start node;
      let base =
        match Seuss.Node.base_snapshot node Unikernel.Image.Node with
        | Some b -> b
        | None -> Alcotest.fail "node has no Node.js base"
      in
      f env base;
      Seuss.Node.shutdown node;
      Alcotest.(check int) "drained" 0 (F.used_frames env.Seuss.Osenv.frames))

let no_evict ~fn_id:_ = ()

let delta (snap : Seuss.Snapshot.t) =
  let collect acc ~vpn e = (vpn, e) :: acc in
  List.rev
    (match snap.Seuss.Snapshot.parent with
    | Some p ->
        PT.fold_delta ~parent:p.Seuss.Snapshot.table snap.Seuss.Snapshot.table
          ~init:[] ~f:collect
    | None -> PT.fold_present snap.Seuss.Snapshot.table ~init:[] ~f:collect)

let self_check store =
  match Seuss.Snapstore.check store with
  | [] -> ()
  | vs -> Alcotest.failf "store self-check: %s" (String.concat "; " vs)

(* {1 Content keys} *)

(* The store's page keys, restated from their definition: djb2 over the
   printed key, folded into 58 bits, never 0. Pages in the bytecode
   tail of the heap key on the program source; the rest on the vpn. *)
let djb2 s =
  let h = ref 5381 in
  String.iter
    (fun c -> h := ((!h * 33) + Char.code c) land 0x3FFFFFFFFFFFFFF)
    s;
  if !h = 0 then 1 else !h

(* The bytecode tail [lo, hi) of a compile-ok capture and its salt. *)
let tail_region (snap : Seuss.Snapshot.t) =
  let guest = snap.Seuss.Snapshot.guest in
  match Unikernel.Guest.snapshot_program_source guest with
  | Some src ->
      let heap_pages = Unikernel.Guest.snapshot_heap_pages guest in
      let page = Mem.Mconfig.page_size in
      let code_pages =
        min heap_pages ((((String.length src * 4) + page - 1) / page) + 1)
      in
      let hi = Unikernel.Gconst.heap_base + heap_pages in
      (hi - code_pages, hi, src)
  | None ->
      Alcotest.failf "%s is not a compile-ok capture" snap.Seuss.Snapshot.name

let reference_key (snap : Seuss.Snapshot.t) vpn =
  let rt =
    Unikernel.Image.runtime_name
      snap.Seuss.Snapshot.image.Unikernel.Image.runtime
  in
  let lo, hi, src = tail_region snap in
  if vpn >= lo && vpn < hi then djb2 (Printf.sprintf "fn:%s:%s:%d" rt src vpn)
  else djb2 (Printf.sprintf "img:%s:%d" rt vpn)

(* Every delta page of every member maps a canonical frame tagged with
   exactly the reference key, across members whose sources share a
   bytecode tail (0 and 2, 1 and 3) and members whose sources differ. *)
let test_content_keys_match_reference () =
  with_fixture ~seed:47L (fun env base ->
      let frames = env.Seuss.Osenv.frames in
      let store =
        Seuss.Snapstore.create ~env
          ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 4096))
          ~policy:Seuss.Config.Snap_lru ~on_evict:no_evict
      in
      List.iteri
        (fun i k ->
          let fn_id = Printf.sprintf "key-%d" i in
          Seuss.Snapstore.insert store ~fn_id
            (capture env base ~name:fn_id (fixture_source k)))
        [ 0; 1; 0; 1 ];
      let tail_frames = Hashtbl.create 16 in
      let checked = ref 0 and in_tail = ref 0 in
      List.iter
        (fun (fn_id, snap) ->
          List.iter
            (fun (vpn, e) ->
              let key = reference_key snap vpn in
              let fr = PT.Entry.frame e in
              if F.tag frames fr <> key then
                Alcotest.failf "%s vpn %d: frame %d tagged %d, reference %d"
                  fn_id vpn fr (F.tag frames fr) key;
              incr checked;
              let lo, hi, _ = tail_region snap in
              if vpn >= lo && vpn < hi then begin
                incr in_tail;
                Hashtbl.replace tail_frames key fr
              end)
            (delta snap))
        (Seuss.Snapstore.members store);
      Alcotest.(check bool) "delta pages were checked" true (!checked > 0);
      Alcotest.(check bool) "bytecode-tail pages were checked" true
        (!in_tail > 0);
      (* Same-source members share their tail: two sources' worth of
         tail content, however many members name it. *)
      Alcotest.(check int) "tail content pages" (!in_tail / 2)
        (Hashtbl.length tail_frames);
      self_check store;
      Seuss.Snapstore.drain store)

(* {1 Working-set victim order} *)

(* Pinned at insert, every member survives a budget no store can meet;
   unpinned afterwards, the next insert's sweep evicts them all, one by
   one, so the eviction sequence is the policy's whole order. The
   fixture fixes that order on each key in turn: no working set before
   one, a lower ws/delta ratio before a higher one, and, between equal
   ratios, the older tick. fn_ids run against every expected order, so
   an order that fell through to them would show. (The fn_id tie-break
   itself is unobservable: every insert and hit takes a fresh tick.) *)
let eviction_sequence ~policy =
  let evicted = ref [] in
  with_fixture ~seed:53L (fun env base ->
      let store =
        Seuss.Snapstore.create ~env ~budget_bytes:1L ~policy
          ~on_evict:(fun ~fn_id -> evicted := fn_id :: !evicted)
      in
      let pinned = ref [] in
      let insert_pinned i fn_id =
        let snap = capture env base ~name:fn_id (fixture_source i) in
        Seuss.Snapshot.addref snap;
        Seuss.Snapstore.insert store ~fn_id snap;
        pinned := snap :: !pinned;
        snap
      in
      (* name, working-set pages, in insert order *)
      let members =
        [
          ("y-nows", 0); ("z-nows", 0); ("d-ws100", 100); ("c-ws10", 10);
          ("b-ws50", 50); ("x-ws50", 50);
        ]
      in
      let snaps =
        List.mapi (fun i (fn_id, _) -> (fn_id, insert_pinned i fn_id)) members
      in
      Alcotest.(check int) "pinned members survive the budget" 0
        (Seuss.Snapstore.evictions store);
      let sizes = List.map (fun (_, s) -> List.length (delta s)) snaps in
      if List.length (List.sort_uniq compare sizes) <> 1 then
        Alcotest.fail "fixture deltas differ in size, so would their ratios";
      List.iter2
        (fun (_, ws) (_, snap) ->
          if ws > 0 then
            Seuss.Snapshot.record_working_set snap
              (List.init ws (fun p -> Unikernel.Gconst.heap_base + p)))
        members snaps;
      (* Touch y-nows and b-ws50 so each is younger than its peer. *)
      List.iter
        (fun fn_id -> ignore (Seuss.Snapstore.lookup store fn_id))
        [ "y-nows"; "b-ws50" ];
      List.iter Seuss.Snapshot.decref !pinned;
      pinned := [];
      ignore (insert_pinned 6 "pin");
      self_check store;
      List.iter Seuss.Snapshot.decref !pinned;
      Seuss.Snapstore.drain store);
  List.rev !evicted

let test_ws_victim_order () =
  Alcotest.(check (list string)) "ws: no set, then ratio, then tick"
    [ "z-nows"; "y-nows"; "c-ws10"; "x-ws50"; "b-ws50"; "d-ws100" ]
    (eviction_sequence ~policy:Seuss.Config.Snap_ws);
  Alcotest.(check (list string)) "lru: tick alone"
    [ "z-nows"; "d-ws100"; "c-ws10"; "x-ws50"; "y-nows"; "b-ws50" ]
    (eviction_sequence ~policy:Seuss.Config.Snap_lru)

(* {1 Allocation contract} *)

(* Words allocated on either heap: promotions are subtracted, so a minor
   collection inside the window is not counted twice. The minor count
   comes from [Gc.minor_words], which includes the live minor heap;
   [Gc.counters]'s minor field lags behind it on OCaml 5, so a window
   that straddles a minor collection would be charged words allocated
   before it opened. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* In steady state an insert keys, dedups and indexes its delta and
   evicts one member without allocating per page: the member's hash
   array (one word per page, plus its header) is the only allocation
   that scales with the delta, and everything else — events, the burn,
   the eviction — fits in a fixed 512 words. *)
let test_insert_allocation () =
  with_fixture ~seed:59L (fun env base ->
      let members = 4 in
      let fill store first =
        for k = first to first + members - 1 do
          let fn_id = Printf.sprintf "alloc-%d" k in
          Seuss.Snapstore.insert store ~fn_id
            (capture env base ~name:fn_id (fixture_source k))
        done
      in
      (* The residency of [members] members sets a budget that the next
         member overruns by exactly one member's worth. *)
      let probe =
        Seuss.Snapstore.create ~env
          ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 4096))
          ~policy:Seuss.Config.Snap_lru ~on_evict:no_evict
      in
      fill probe 0;
      let budget = Seuss.Snapstore.resident_bytes probe in
      Seuss.Snapstore.drain probe;
      let store =
        Seuss.Snapstore.create ~env ~budget_bytes:budget
          ~policy:Seuss.Config.Snap_lru ~on_evict:no_evict
      in
      fill store members;
      Alcotest.(check int) "the budget holds the members" 0
        (Seuss.Snapstore.evictions store);
      let next = ref (2 * members) in
      let insert_one () =
        let fn_id = Printf.sprintf "alloc-%d" !next in
        let snap = capture env base ~name:fn_id (fixture_source !next) in
        incr next;
        let pages = List.length (delta snap) in
        let evictions = Seuss.Snapstore.evictions store in
        let w0 = allocated_words () in
        Seuss.Snapstore.insert store ~fn_id snap;
        let w1 = allocated_words () in
        Alcotest.(check int)
          (fn_id ^ " evicts one member")
          (evictions + 1)
          (Seuss.Snapstore.evictions store);
        (pages, w1 -. w0)
      in
      for _ = 1 to 4 do
        ignore (insert_one ())
      done;
      let pages, words = insert_one () in
      if words > float_of_int (pages + 512) then
        Alcotest.failf "insert of a %d-page delta allocated %.0f words (> %d)"
          pages words (pages + 512);
      self_check store;
      Seuss.Snapstore.drain store)

let () =
  let case name f = Alcotest.test_case name `Slow f in
  Alcotest.run "snapstore"
    [
      ( "schedules",
        [
          case
            (Printf.sprintf "%d random schedules (seed %Ld)" schedules
               base_seed)
            test_random_schedules;
        ] );
      ( "differential",
        [
          case "armed unlimited == unarmed" test_armed_unlimited_matches_unarmed;
          case "SEUSS_SNAP_CACHE=0 == unset" test_env_hook_zero_is_identity;
        ] );
      ( "scenarios",
        [
          case "dedup shares content across members" test_dedup_shares_content;
          case "lru evicts the least recent member" test_lru_evicts_least_recent;
          case "ws without sets falls back to recency"
            test_ws_without_sets_matches_lru;
          case "concurrent sweeps evict distinct victims"
            test_concurrent_sweeps_evict_distinct_victims;
          case "content keys match the printed-key reference"
            test_content_keys_match_reference;
          case "ws evicts by set, then ratio, then tick" test_ws_victim_order;
          case "steady-state insert allocates one hash array"
            test_insert_allocation;
        ] );
    ]
