module Entry = struct
  type t = int

  let absent = 0
  let present_bit = 1
  let writable_bit = 2
  let cow_bit = 4
  let dirty_bit = 8
  let accessed_bit = 16
  let flag_bits = 5

  let make ~frame ~writable ~cow ~dirty ~accessed =
    (frame lsl flag_bits)
    lor present_bit
    lor (if writable then writable_bit else 0)
    lor (if cow then cow_bit else 0)
    lor (if dirty then dirty_bit else 0)
    lor if accessed then accessed_bit else 0

  let present e = e land present_bit <> 0
  let frame e = e lsr flag_bits
  let writable e = e land writable_bit <> 0
  let cow e = e land cow_bit <> 0
  let dirty e = e land dirty_bit <> 0
  let accessed e = e land accessed_bit <> 0

  let with_flags ?writable:w ?cow:c ?dirty:d ?accessed:a e =
    let put bit value e =
      match value with
      | None -> e
      | Some true -> e lor bit
      | Some false -> e land lnot bit
    in
    e |> put writable_bit w |> put cow_bit c |> put dirty_bit d
    |> put accessed_bit a
end

(* Every table derived from one [create] — its clones, their clones —
   is a family sharing one pool. Leaves live in the pool and are named by
   id (0 = no leaf); a root is an [int array] of leaf ids. Released leaves
   and roots go back to the pool and are reused, so after
   warm-up clones, private copies and fresh leaves allocate nothing on the
   major heap. Roots and leaves are statically [int array]s: their stores
   need no write barrier, and the copies below are plain loops. *)
type pool = {
  uid : int;
  frames : Frame.t;
  (* leaves.(id) is leaf [id]'s 512 entries; slot 0 is unused. *)
  mutable leaves : int array array;
  (* For a live leaf, leaf_rc.(id) is the number of roots naming it. A
     free leaf's slot instead links the free list: it holds the next
     free id, or [no_leaf]. *)
  mutable leaf_rc : int array;
  mutable next_leaf : int;
  (* Most recently released leaf (LIFO reuse), or [no_leaf]. *)
  mutable free_leaf : int;
  (* Recycled roots, all-zero. *)
  mutable free_roots : int array array;
  mutable n_free_roots : int;
}

type t = { pool : pool; mutable dirs : int array; mutable released : bool }

let entries = Mconfig.entries_per_table
let root_size = 512
let max_vpn = root_size * entries
let no_leaf = 0

(* What a released table and a vacated pool slot point at. *)
let no_root : int array = [||]

(* Pool identity for [fold_delta] and [expected_refcounts]: a leaf id
   means the same leaf only within one pool. *)
let next_pool_uid = ref 0

(* A root from the pool, or a fresh one while the family is still
   growing. Either way every slot is [no_leaf]. *)
let take_root p =
  if p.n_free_roots > 0 then begin
    let n = p.n_free_roots - 1 in
    p.n_free_roots <- n;
    let root = p.free_roots.(n) in
    p.free_roots.(n) <- no_root;
    root
  end
  else
    (* seussheat: cold — pool growth: one root per peak live table *)
    Array.make root_size no_leaf

let create frames =
  incr next_pool_uid;
  let leaf_capacity = 8 in
  let pool =
    {
      uid = !next_pool_uid;
      frames;
      leaves = Array.make leaf_capacity no_root;
      leaf_rc = Array.make leaf_capacity 0;
      next_leaf = 1;
      free_leaf = no_leaf;
      free_roots = Array.make 4 no_root;
      n_free_roots = 0;
    }
  in
  { pool; dirs = take_root pool; released = false }

(* seussheat: cold — the error path of a checked misuse *)
let use_after_release () =
  invalid_arg "Page_table: use after release"

let check_alive t = if t.released then use_after_release ()

(* seussheat: cold — amortized doubling of the recycled-root stack *)
let grow_root_stack p =
  let bigger = Array.make (2 * Array.length p.free_roots) no_root in
  Array.blit p.free_roots 0 bigger 0 p.n_free_roots;
  p.free_roots <- bigger

let give_root p root =
  if p.n_free_roots = Array.length p.free_roots then grow_root_stack p;
  p.free_roots.(p.n_free_roots) <- root;
  p.n_free_roots <- p.n_free_roots + 1

(* seussheat: cold — amortized doubling of the pool's leaf columns *)
let grow_leaves p =
  let cap = 2 * Array.length p.leaves in
  let leaves = Array.make cap no_root in
  Array.blit p.leaves 0 leaves 0 p.next_leaf;
  p.leaves <- leaves;
  let leaf_rc = Array.make cap 0 in
  Array.blit p.leaf_rc 0 leaf_rc 0 p.next_leaf;
  p.leaf_rc <- leaf_rc

(* seussheat: cold — pool growth: one leaf per peak live leaf *)
let fresh_leaf p =
  if p.next_leaf = Array.length p.leaves then grow_leaves p;
  let id = p.next_leaf in
  p.next_leaf <- id + 1;
  p.leaves.(id) <- Array.make entries Entry.absent;
  id

(* A leaf id with refcount 1. Its entries are stale if it was recycled:
   the caller overwrites all of them. *)
let take_leaf p =
  let id =
    if p.free_leaf <> no_leaf then begin
      let id = p.free_leaf in
      p.free_leaf <- p.leaf_rc.(id);
      id
    end
    else fresh_leaf p
  in
  p.leaf_rc.(id) <- 1;
  id

let clone_shallow t =
  check_alive t;
  let p = t.pool and src = t.dirs in
  let dirs = take_root p in
  let rc = p.leaf_rc in
  for dir = 0 to root_size - 1 do
    let id = src.(dir) in
    if id <> no_leaf then begin
      dirs.(dir) <- id;
      rc.(id) <- rc.(id) + 1
    end
  done;
  (* seussheat: cold — the returned handle itself: four minor words, no major allocation *)
  { pool = p; dirs; released = false }

(* seussheat: cold — the error path of a checked misuse *)
let vpn_out_of_range () =
  invalid_arg "Page_table: vpn out of range"

let check_vpn vpn = if vpn < 0 || vpn >= max_vpn then vpn_out_of_range ()

let get t ~vpn =
  check_alive t;
  check_vpn vpn;
  let id = t.dirs.(vpn / entries) in
  if id = no_leaf then Entry.absent else t.pool.leaves.(id).(vpn mod entries)

(* A leaf this table is about to write through must be exclusively owned:
   copy it if shared, taking a frame reference for every present entry the
   copy now names. Returns the leaf's entries. *)
let private_leaf t dir =
  let p = t.pool in
  let id = t.dirs.(dir) in
  if id = no_leaf then begin
    let fresh = take_leaf p in
    let dst = p.leaves.(fresh) in
    for i = 0 to entries - 1 do
      dst.(i) <- Entry.absent
    done;
    t.dirs.(dir) <- fresh;
    dst
  end
  else if p.leaf_rc.(id) = 1 then p.leaves.(id)
  else begin
    p.leaf_rc.(id) <- p.leaf_rc.(id) - 1;
    let copy = take_leaf p in
    let src = p.leaves.(id) and dst = p.leaves.(copy) in
    for i = 0 to entries - 1 do
      let e = src.(i) in
      dst.(i) <- e;
      if Entry.present e then Frame.incref p.frames (Entry.frame e)
    done;
    t.dirs.(dir) <- copy;
    dst
  end

let set t ~vpn entry =
  check_alive t;
  check_vpn vpn;
  let leaf = private_leaf t (vpn / entries) in
  let idx = vpn mod entries in
  let old = leaf.(idx) in
  leaf.(idx) <- entry;
  (* Same-frame updates (flag changes) keep the existing reference;
     otherwise the old mapping's reference is dropped and the new entry's
     reference was transferred in by the caller. *)
  let same_frame =
    Entry.present old && Entry.present entry
    && Entry.frame old = Entry.frame entry
  in
  if (not same_frame) && Entry.present old then
    Frame.decref t.pool.frames (Entry.frame old)

let in_place_map t f =
  check_alive t;
  let leaves = t.pool.leaves in
  for dir = 0 to root_size - 1 do
    let id = t.dirs.(dir) in
    if id <> no_leaf then begin
      let leaf = leaves.(id) in
      for i = 0 to entries - 1 do
        let e = leaf.(i) in
        if Entry.present e then leaf.(i) <- f e
      done
    end
  done

let mark_all_cow_clean t =
  in_place_map t (fun e ->
      Entry.with_flags ~writable:false ~cow:true ~dirty:false e)

let clear_dirty_all t = in_place_map t (fun e -> Entry.with_flags ~dirty:false e)

let fold_present t ~init ~f =
  check_alive t;
  let leaves = t.pool.leaves in
  (* seussheat: cold — a local ref that never escapes is a mutable variable: the walk allocates nothing *)
  let acc = ref init in
  for dir = 0 to root_size - 1 do
    let id = t.dirs.(dir) in
    if id <> no_leaf then begin
      let leaf = leaves.(id) in
      for i = 0 to entries - 1 do
        let e = leaf.(i) in
        if Entry.present e then acc := f !acc ~vpn:((dir * entries) + i) e
      done
    end
  done;
  !acc

(* Walk the pages [t] maps through a different frame than [parent] (or
   maps where [parent] has nothing) — the delta layer of a stacked
   snapshot. Leaves shared with the parent (same pool, same leaf id) are
   skipped outright: structural sharing guarantees their entries are
   identical, which is what keeps the walk proportional to the diff's
   leaves, not the whole address space. *)
let fold_delta ~parent t ~init ~f =
  check_alive t;
  check_alive parent;
  let same_pool = t.pool.uid = parent.pool.uid in
  let leaves = t.pool.leaves and parent_leaves = parent.pool.leaves in
  (* seussheat: cold — a local ref that never escapes is a mutable variable: the walk allocates nothing *)
  let acc = ref init in
  for dir = 0 to root_size - 1 do
    let id = t.dirs.(dir) and pid = parent.dirs.(dir) in
    if id <> no_leaf && not (same_pool && id = pid) then begin
      let leaf = leaves.(id) in
      for i = 0 to entries - 1 do
        let e = leaf.(i) in
        if Entry.present e then
          let same =
            pid <> no_leaf
            &&
            let p = parent_leaves.(pid).(i) in
            Entry.present p && Entry.frame p = Entry.frame e
          in
          if not same then acc := f !acc ~vpn:((dir * entries) + i) e
      done
    end
  done;
  !acc

let count_present t = fold_present t ~init:0 ~f:(fun n ~vpn:_ _ -> n + 1)

let count_dirty t =
  fold_present t ~init:0 ~f:(fun n ~vpn:_ e ->
      if Entry.dirty e then n + 1 else n)

let leaf_tables t =
  check_alive t;
  Array.fold_left (fun n id -> if id <> no_leaf then n + 1 else n) 0 t.dirs

let private_leaf_tables t =
  check_alive t;
  let rc = t.pool.leaf_rc in
  Array.fold_left
    (fun n id -> if id <> no_leaf && rc.(id) = 1 then n + 1 else n)
    0 t.dirs

let structure_bytes t =
  let word = 8 in
  let root = root_size * word in
  let leaf_bytes = entries * word in
  root + (private_leaf_tables t * leaf_bytes)

(* Validation (tests): walk a family of tables, deduplicating shared
   leaves by (pool, leaf id), and return the per-frame reference counts
   the allocator should be reporting — each distinct leaf holds one
   reference per present entry, shared leaves exactly once. Frame ids
   are dense, so the counts go into a frame-indexed array that doubles
   when a larger id turns up. *)
let expected_refcounts tables =
  let seen = Hashtbl.create 64 in
  let counts = ref (Array.make 4096 0) in
  let count f =
    if f >= Array.length !counts then begin
      let bigger = Array.make (max (f + 1) (2 * Array.length !counts)) 0 in
      Array.blit !counts 0 bigger 0 (Array.length !counts);
      counts := bigger
    end;
    !counts.(f) <- !counts.(f) + 1
  in
  List.iter
    (fun t ->
      check_alive t;
      Array.iter
        (fun id ->
          if id <> no_leaf && not (Hashtbl.mem seen (t.pool.uid, id)) then begin
            Hashtbl.replace seen (t.pool.uid, id) ();
            Array.iter
              (fun e -> if Entry.present e then count (Entry.frame e))
              t.pool.leaves.(id)
          end)
        t.dirs)
    tables;
  !counts

(* Unshare every leaf; a leaf whose count reaches zero drops its frame
   references and returns to the pool, and the emptied root follows. *)
let release t =
  check_alive t;
  let p = t.pool and dirs = t.dirs in
  for dir = 0 to root_size - 1 do
    let id = dirs.(dir) in
    if id <> no_leaf then begin
      dirs.(dir) <- no_leaf;
      let rc = p.leaf_rc.(id) - 1 in
      p.leaf_rc.(id) <- rc;
      if rc = 0 then begin
        let leaf = p.leaves.(id) in
        for i = 0 to entries - 1 do
          let e = leaf.(i) in
          if Entry.present e then Frame.decref p.frames (Entry.frame e)
        done;
        p.leaf_rc.(id) <- p.free_leaf;
        p.free_leaf <- id
      end
    end
  done;
  t.released <- true;
  t.dirs <- no_root;
  give_root p dirs
