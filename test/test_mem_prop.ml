(* Randomized property battery for the mem substrate, driven by the
   simulator's own splitmix64 stream (Sim.Prng) rather than QCheck
   generators: the schedules are a deterministic function of the seed,
   so a failure report names the exact (seed, schedule, step) to replay.

   Two families:

   - schedules: random interleavings of touch_read / touch_write /
     write_range / freeze / COW-clone / release / prefault over a family
     of address spaces, asserting after EVERY operation that the O(1)
     counters match full page-table walks and that the frame allocator's
     refcounts are exactly the ones implied by the live tables
     (Page_table.expected_refcounts);

   - differential: a batched prefault followed by an invocation's writes
     leaves an address space byte-identical (same frames, same flags,
     same counters) to pure demand faulting of the same vpns — only the
     fault-hook activity differs.

   SEUSS_PROP_SEED overrides the base seed (CI rotates it). *)

module F = Mem.Frame
module PT = Mem.Page_table
module AS = Mem.Addr_space

let base_seed =
  match Sys.getenv_opt "SEUSS_PROP_SEED" with
  | None -> 17L
  | Some s -> (
      match Int64.of_string_opt s with
      | Some v -> v
      | None ->
          Printf.eprintf "test_mem_prop: malformed SEUSS_PROP_SEED %S\n" s;
          17L)

let schedules = 200
let mib n = Int64.of_int (Mem.Mconfig.mib n)

(* {1 Invariant checks} *)

let check_counters ~ctx space =
  let m = AS.mapped_pages space and ms = AS.mapped_pages_slow space in
  if m <> ms then
    Alcotest.failf "%s: mapped_pages %d <> slow walk %d" ctx m ms;
  let d = AS.dirty_pages space and ds = AS.dirty_pages_slow space in
  if d <> ds then Alcotest.failf "%s: dirty_pages %d <> slow walk %d" ctx d ds

let check_refcounts ~ctx frames tables =
  let expected = PT.expected_refcounts tables in
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

let check_invariants ~ctx frames spaces =
  List.iter (check_counters ~ctx) spaces;
  check_refcounts ~ctx frames (List.map AS.table spaces)

(* {1 Random schedules} *)

let max_spaces = 6
let vpn_span = 2048

(* One schedule: a fresh allocator, a frozen root, then [steps] random
   operations over a growing/shrinking family of spaces, with the full
   invariant set checked after every single operation. *)
let run_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int sched)) in
  let frames = F.create ~budget_bytes:(mib 256) () in
  let root = AS.create frames in
  ignore (AS.write_range root ~vpn:0 ~pages:64);
  AS.freeze root;
  let spaces = ref [ root ] in
  let pick () =
    List.nth !spaces (Sim.Prng.int prng (List.length !spaces))
  in
  let steps = 24 + Sim.Prng.int prng 25 in
  for step = 1 to steps do
    let ctx = Printf.sprintf "seed %Ld sched %d step %d" seed sched step in
    (match Sim.Prng.int prng 100 with
    | r when r < 30 ->
        ignore (AS.touch_write (pick ()) ~vpn:(Sim.Prng.int prng vpn_span))
    | r when r < 40 -> AS.touch_read (pick ()) ~vpn:(Sim.Prng.int prng vpn_span)
    | r when r < 55 ->
        ignore
          (AS.write_range (pick ())
             ~vpn:(Sim.Prng.int prng (vpn_span - 16))
             ~pages:(1 + Sim.Prng.int prng 16))
    | r when r < 63 -> AS.freeze (pick ())
    | r when r < 78 ->
        if List.length !spaces < max_spaces then begin
          let parent = pick () in
          AS.freeze parent;
          spaces := AS.of_table frames (AS.table parent) :: !spaces
        end
    | r when r < 88 -> (
        (* Release any member — including a parent whose clones are
           still live: shared leaves must keep their frames alive. *)
        match !spaces with
        | _ :: _ :: _ ->
            let victim = pick () in
            AS.release victim;
            spaces := List.filter (fun s -> s != victim) !spaces
        | _ -> ())
    | _ ->
        let space = pick () in
        let n = 1 + Sim.Prng.int prng 32 in
        let vpns = List.init n (fun _ -> Sim.Prng.int prng vpn_span) in
        ignore (AS.prefault space ~vpns));
    check_invariants ~ctx frames !spaces
  done;
  List.iter AS.release !spaces;
  let used = F.used_frames frames in
  if used <> 0 then
    Alcotest.failf "seed %Ld sched %d: %d frames leaked after full release"
      seed sched used

let test_random_schedules () =
  for sched = 0 to schedules - 1 do
    run_schedule ~seed:base_seed ~sched
  done

(* {1 Differential: prefault vs demand faulting} *)

(* Identical worlds: same allocator budget, same frozen parent, so the
   allocation order — and therefore every frame id — is a deterministic
   function of the operations applied. *)
let build_universe () =
  let frames = F.create ~budget_bytes:(mib 64) () in
  let parent = AS.create frames in
  ignore (AS.write_range parent ~vpn:0 ~pages:96);
  AS.freeze parent;
  let child = AS.of_table frames (AS.table parent) in
  (frames, parent, child)

let entries_of space =
  List.sort compare
    (PT.fold_present (AS.table space) ~init:[] ~f:(fun acc ~vpn e ->
         ( vpn,
           PT.Entry.frame e,
           PT.Entry.writable e,
           PT.Entry.cow e,
           PT.Entry.dirty e,
           PT.Entry.accessed e )
         :: acc))

let state_of space =
  ( AS.mapped_pages space,
    AS.dirty_pages space,
    AS.lifetime_zero_fills space,
    AS.lifetime_cow_copies space,
    entries_of space )

let test_prefault_matches_demand () =
  let prng = Sim.Prng.create (Int64.logxor base_seed 0xD1FFL) in
  for round = 1 to 60 do
    (* A working set mixing COW hits (parent range) and fresh pages,
       duplicates allowed, plus follow-up invocation writes. *)
    let ws =
      List.init
        (1 + Sim.Prng.int prng 48)
        (fun _ -> Sim.Prng.int prng 160)
    in
    let follow_ups =
      List.init
        (Sim.Prng.int prng 24)
        (fun _ -> Sim.Prng.int prng 200)
    in
    (* Arm 1: pure demand faulting, counting hook activity. *)
    let frames_d, parent_d, demand = build_universe () in
    let demand_faults = ref 0 in
    AS.set_fault_hook demand (fun _ -> incr demand_faults);
    List.iter (fun vpn -> ignore (AS.touch_write demand ~vpn)) ws;
    List.iter (fun vpn -> ignore (AS.touch_write demand ~vpn)) follow_ups;
    (* Arm 2: batched prefault of the same set, then the same writes. *)
    let frames_p, parent_p, prefaulted = build_universe () in
    let prefault_faults = ref 0 in
    AS.set_fault_hook prefaulted (fun _ -> incr prefault_faults);
    let stats = AS.prefault prefaulted ~vpns:ws in
    List.iter (fun vpn -> ignore (AS.touch_write prefaulted ~vpn)) follow_ups;
    if state_of demand <> state_of prefaulted then
      Alcotest.failf
        "round %d: prefaulted space diverged from demand-faulted twin" round;
    (* Only the fault-count telemetry may differ: the hook never fires
       for the batch, so the demand arm saw exactly the batch's installs
       more than the prefault arm did. *)
    let delta = stats.AS.prefault_zero_fills + stats.AS.prefault_cow_copies in
    if !demand_faults - !prefault_faults <> delta then
      Alcotest.failf "round %d: fault-count delta %d, prefault installed %d"
        round
        (!demand_faults - !prefault_faults)
        delta;
    Alcotest.(check int)
      "requested counts every vpn" (List.length ws) stats.AS.requested;
    (* Both worlds drain to zero. *)
    AS.release demand;
    AS.release parent_d;
    AS.release prefaulted;
    AS.release parent_p;
    Alcotest.(check int) "demand world drained" 0 (F.used_frames frames_d);
    Alcotest.(check int) "prefault world drained" 0 (F.used_frames frames_p)
  done

let test_prefault_rejects_read_only () =
  let frames = F.create ~budget_bytes:(mib 4) () in
  let space = AS.create frames in
  let fr = F.alloc frames in
  PT.set (AS.table space) ~vpn:7
    (PT.Entry.make ~frame:fr ~writable:false ~cow:false ~dirty:false
       ~accessed:false);
  Alcotest.(check bool) "protection violation raises" true
    (match AS.prefault space ~vpns:[ 7 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* {1 Trace recording} *)

let test_trace_records_fault_order () =
  let frames, parent, child = build_universe () in
  AS.start_trace child;
  Alcotest.(check bool) "armed" true (AS.tracing child);
  ignore (AS.touch_write child ~vpn:120);
  (* no fault on repeat *)
  ignore (AS.touch_write child ~vpn:120);
  ignore (AS.touch_write child ~vpn:3);
  ignore (AS.touch_write child ~vpn:777);
  Alcotest.(check (list int))
    "faulted vpns in order" [ 120; 3; 777 ] (AS.take_trace child);
  Alcotest.(check bool) "disarmed" false (AS.tracing child);
  Alcotest.(check (list int)) "empty when unarmed" [] (AS.take_trace child);
  AS.release child;
  AS.release parent;
  ignore frames

(* {1 Release with live COW clones (refcount drain)} *)

let test_release_parent_under_live_clones () =
  let frames = F.create ~budget_bytes:(mib 64) () in
  let parent = AS.create frames in
  ignore (AS.write_range parent ~vpn:0 ~pages:64);
  AS.freeze parent;
  let c1 = AS.of_table frames (AS.table parent)
  and c2 = AS.of_table frames (AS.table parent) in
  ignore (AS.write_range c1 ~vpn:0 ~pages:8);
  ignore (AS.write_range c2 ~vpn:32 ~pages:8);
  (* Drop the parent first: everything the clones share must survive. *)
  AS.release parent;
  check_invariants ~ctx:"after parent release" frames [ c1; c2 ];
  ignore (AS.touch_write c1 ~vpn:40);
  ignore (AS.touch_write c2 ~vpn:4);
  check_invariants ~ctx:"after post-release writes" frames [ c1; c2 ];
  AS.release c1;
  check_invariants ~ctx:"after c1 release" frames [ c2 ];
  AS.release c2;
  Alcotest.(check int) "all frames drained" 0 (F.used_frames frames)

(* {1 Page-table pools} *)

let entry_rw frame =
  PT.Entry.make ~frame ~writable:true ~cow:false ~dirty:true ~accessed:true

(* Raw tables from two families ([PT.create] each starts a pool) over
   one allocator. Leaf ids restart at 1 in every pool, so both families
   name "leaf 1": refcount accounting and sharing tests must tell them
   apart by pool. *)
let run_pool_schedule ~seed ~sched =
  let prng = Sim.Prng.create (Int64.add seed (Int64.of_int (sched * 31))) in
  let frames = F.create ~budget_bytes:(mib 256) () in
  (* Two families; each member is (family, table). *)
  let tables = ref [ (0, PT.create frames); (1, PT.create frames) ] in
  let pick () = List.nth !tables (Sim.Prng.int prng (List.length !tables)) in
  let in_family k = List.filter (fun (f, _) -> f = k) !tables in
  let steps = 40 + Sim.Prng.int prng 40 in
  for step = 1 to steps do
    let ctx = Printf.sprintf "seed %Ld sched %d step %d" seed sched step in
    (match Sim.Prng.int prng 100 with
    | r when r < 45 ->
        (* A fresh frame, or a read-only share of one another table
           already maps (cross-family shares included). *)
        let _, t = pick () in
        let vpn = Sim.Prng.int prng vpn_span in
        let shared =
          if Sim.Prng.int prng 3 > 0 then None
          else
            let _, other = pick () in
            PT.fold_present other ~init:None ~f:(fun acc ~vpn:_ e ->
                match acc with None -> Some (PT.Entry.frame e) | s -> s)
        in
        let old = PT.get t ~vpn in
        (match shared with
        (* Rewriting a vpn to the frame it already maps is a flag update
           that keeps the existing reference: nothing to take. *)
        | Some fr when PT.Entry.present old && PT.Entry.frame old = fr -> ()
        | Some fr ->
            F.incref frames fr;
            PT.set t ~vpn (entry_rw fr)
        | None -> PT.set t ~vpn (entry_rw (F.alloc frames)))
    | r when r < 55 ->
        let _, t = pick () in
        PT.set t ~vpn:(Sim.Prng.int prng vpn_span) PT.Entry.absent
    | r when r < 75 ->
        if List.length !tables < max_spaces + 2 then begin
          let fam, t = pick () in
          tables := (fam, PT.clone_shallow t) :: !tables
        end
    | r when r < 92 -> (
        (* Keep one member per family so both pools stay in play. *)
        let fam, victim = pick () in
        match in_family fam with
        | _ :: _ :: _ ->
            PT.release victim;
            tables := List.filter (fun (_, t) -> t != victim) !tables
        | _ -> ())
    | _ -> PT.mark_all_cow_clean (snd (pick ())));
    check_refcounts ~ctx frames (List.map snd !tables)
  done;
  List.iter (fun (_, t) -> PT.release t) !tables;
  if F.used_frames frames <> 0 then
    Alcotest.failf "seed %Ld sched %d: %d frames leaked" seed sched
      (F.used_frames frames)

let test_pool_schedules () =
  for sched = 0 to schedules - 1 do
    run_pool_schedule ~seed:base_seed ~sched
  done

(* A leaf released to the pool keeps its old entries until reuse; a
   fresh leaf drawn from the pool must still read as empty. *)
let test_recycled_leaf_is_empty () =
  let frames = F.create ~budget_bytes:(mib 64) () in
  let root = PT.create frames in
  let full = PT.clone_shallow root in
  for vpn = 0 to Mem.Mconfig.entries_per_table - 1 do
    PT.set full ~vpn (entry_rw (F.alloc frames))
  done;
  PT.release full;
  Alcotest.(check int) "frames returned" 0 (F.used_frames frames);
  let fresh = PT.clone_shallow root in
  PT.set fresh ~vpn:5 (entry_rw (F.alloc frames));
  Alcotest.(check int) "one leaf" 1 (PT.leaf_tables fresh);
  Alcotest.(check int) "only the new entry" 1 (PT.count_present fresh);
  Alcotest.(check bool) "neighbour absent" false
    (PT.Entry.present (PT.get fresh ~vpn:6));
  PT.release fresh;
  PT.release root;
  Alcotest.(check int) "drained" 0 (F.used_frames frames)

(* A root released to the pool had leaves in directories its source
   never mapped; the next clone must see none of them. *)
let test_recycled_root_is_empty () =
  let frames = F.create ~budget_bytes:(mib 64) () in
  let root = PT.create frames in
  let wide = PT.clone_shallow root in
  List.iter
    (fun dir ->
      PT.set wide ~vpn:(dir * Mem.Mconfig.entries_per_table)
        (entry_rw (F.alloc frames)))
    [ 0; 7; 100; 511 ];
  PT.release wide;
  let next = PT.clone_shallow root in
  Alcotest.(check int) "no leaves" 0 (PT.leaf_tables next);
  Alcotest.(check int) "no entries" 0 (PT.count_present next);
  Alcotest.(check int) "no structure beyond the root"
    (512 * 8) (PT.structure_bytes next);
  PT.release next;
  PT.release root

(* fold_delta against a parent from another family: leaf ids coincide
   across pools but name different leaves, so nothing may be skipped as
   shared. The result must equal a per-vpn comparison. *)
let test_fold_delta_across_pools () =
  let prng = Sim.Prng.create (Int64.logxor base_seed 0xDE17AL) in
  for round = 1 to 40 do
    let frames = F.create ~budget_bytes:(mib 64) () in
    let parent = PT.create frames and child = PT.create frames in
    let span = 3 * Mem.Mconfig.entries_per_table in
    for _ = 1 to 64 do
      PT.set parent ~vpn:(Sim.Prng.int prng span) (entry_rw (F.alloc frames))
    done;
    for _ = 1 to 64 do
      let vpn = Sim.Prng.int prng span in
      let pe = PT.get parent ~vpn and ce = PT.get child ~vpn in
      if PT.Entry.present pe && Sim.Prng.int prng 2 = 0 then begin
        (* Share the parent's frame unless the child maps it already. *)
        let fr = PT.Entry.frame pe in
        if not (PT.Entry.present ce && PT.Entry.frame ce = fr) then begin
          F.incref frames fr;
          PT.set child ~vpn (entry_rw fr)
        end
      end
      else PT.set child ~vpn (entry_rw (F.alloc frames))
    done;
    let got =
      List.rev (PT.fold_delta ~parent child ~init:[] ~f:(fun acc ~vpn _ -> vpn :: acc))
    in
    let want =
      List.rev
        (PT.fold_present child ~init:[] ~f:(fun acc ~vpn e ->
             let pe = PT.get parent ~vpn in
             if PT.Entry.present pe && PT.Entry.frame pe = PT.Entry.frame e
             then acc
             else vpn :: acc))
    in
    Alcotest.(check (list int)) (Printf.sprintf "round %d delta" round) want got;
    PT.release child;
    PT.release parent;
    Alcotest.(check int) "drained" 0 (F.used_frames frames)
  done

let test_released_table_rejects_every_op () =
  let frames = F.create ~budget_bytes:(mib 4) () in
  let root = PT.create frames in
  let t = PT.clone_shallow root in
  PT.set t ~vpn:3 (entry_rw (F.alloc frames));
  PT.release t;
  let rejects name f =
    Alcotest.(check string) (name ^ " after release")
      "Page_table: use after release"
      (match f () with
      | () -> "no exception"
      | exception Invalid_argument msg -> msg)
  in
  rejects "get" (fun () -> ignore (PT.get t ~vpn:3));
  rejects "set" (fun () -> PT.set t ~vpn:3 PT.Entry.absent);
  rejects "clone_shallow" (fun () -> ignore (PT.clone_shallow t));
  rejects "fold_present" (fun () ->
      ignore (PT.fold_present t ~init:0 ~f:(fun n ~vpn:_ _ -> n + 1)));
  rejects "release" (fun () -> PT.release t);
  (* The recycled root now belongs to a live clone; the stale handle
     must not reach it. *)
  let live = PT.clone_shallow root in
  rejects "get once its root is reused" (fun () -> ignore (PT.get t ~vpn:3));
  PT.release live;
  PT.release root;
  Alcotest.(check int) "drained" 0 (F.used_frames frames)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mem_prop"
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
          case "prefault == demand faulting" test_prefault_matches_demand;
          case "read-only page rejected" test_prefault_rejects_read_only;
        ] );
      ( "trace",
        [ case "records fault order once" test_trace_records_fault_order ] );
      ( "drain",
        [
          case "parent release under live clones"
            test_release_parent_under_live_clones;
        ] );
      ( "pool",
        [
          case
            (Printf.sprintf "%d two-family schedules (seed %Ld)" schedules
               base_seed)
            test_pool_schedules;
          case "recycled leaf is empty" test_recycled_leaf_is_empty;
          case "recycled root is empty" test_recycled_root_is_empty;
          case "fold_delta across pools" test_fold_delta_across_pools;
          case "released table rejects every op"
            test_released_table_rejects_every_op;
        ] );
    ]
