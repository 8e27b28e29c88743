(* The content-addressed function-snapshot store.

   Frames are metadata-only, so "content" is synthesized from the guest
   memory layout, which is deterministic by construction: every function
   snapshot of a runtime is captured at the same compile-ok breakpoint,
   after the same restore/accept/compile writes landed at the same vpns.
   The only pages whose content depends on the function are the compiled
   bytecode at the tail of the heap bump extent — those are salted by
   the program source; everything else keys on (runtime, vpn). Two
   functions with identical source on the same runtime therefore share
   even their bytecode, which is exactly what a real content hash over
   page bytes would find. *)

type ix_entry = {
  ix_frame : Mem.Frame.frame;
      (* canonical frame for this content; kept live by the member
         tables that map it (the index itself holds no reference) *)
  mutable holders : int;  (* member delta pages naming this content *)
}

type member = {
  m_fn_id : string;
  m_snap : Snapshot.t;
  m_hashes : int array;  (* content hash of each delta page *)
  m_delta_pages : int;
  m_shared_pages : int;
  m_unique_pages : int;
  m_structure_bytes : int;  (* member-private page-table overhead *)
  mutable m_last_used : int;  (* logical tick, not wallclock *)
  mutable m_uses : int;
}

let no_hashes : int array = [||]

(* Store-owned insert scratch, reused by every insert: the delta's
   (vpn, entry) pairs in walk order, the member hash array being
   filled, and the walk's running state. An insert fills it after its
   burn and is done with it before its next yield, so concurrent
   inserts never see each other's contents. *)
type walk = {
  mutable vpns : int array;
  mutable entries : Mem.Page_table.Entry.t array;
  mutable hashes : int array;
  mutable pages : int;  (* pages recorded so far *)
  mutable img_key : int;  (* djb2 state after "img:<rt>:" *)
  mutable fn_key : int;  (* djb2 state after "fn:<rt>:<salt>:" *)
  mutable fn_lo : int;  (* function-specific vpns: [fn_lo, fn_hi) *)
  mutable fn_hi : int;
  mutable last_dir : int;
  mutable dirs : int;  (* distinct directories the delta touches *)
}

type t = {
  env : Osenv.t;
  budget : int64;
  policy : Config.snap_policy;
  on_evict : fn_id:string -> unit;
  index : (int, ix_entry) Hashtbl.t;  (* content hash -> canonical page *)
  members : (string, member) Hashtbl.t;  (* fn_id -> member *)
  walk : walk;
  mutable tick : int;
  mutable structure_total : int;
  mutable peak_bytes : int;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable eviction_count : int;
  mutable pages_inserted_total : int;
  mutable pages_unique_total : int;
  c_inserts : Obs.Metrics.counter;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
  c_pages_shared : Obs.Metrics.counter;
  c_pages_unique : Obs.Metrics.counter;
  g_resident : Obs.Metrics.gauge;
  g_members : Obs.Metrics.gauge;
  g_index : Obs.Metrics.gauge;
}

let create ~env ~budget_bytes ~policy ~on_evict =
  let m = env.Osenv.metrics in
  {
    env;
    budget = budget_bytes;
    policy;
    on_evict;
    index = Hashtbl.create 4096;
    members = Hashtbl.create 256;
    walk =
      {
        vpns = [||];
        entries = [||];
        hashes = [||];
        pages = 0;
        img_key = 0;
        fn_key = 0;
        fn_lo = 0;
        fn_hi = 0;
        last_dir = -1;
        dirs = 0;
      };
    tick = 0;
    structure_total = 0;
    peak_bytes = 0;
    hit_count = 0;
    miss_count = 0;
    eviction_count = 0;
    pages_inserted_total = 0;
    pages_unique_total = 0;
    c_inserts = Obs.Metrics.counter m "snapstore_inserts_total";
    c_hits = Obs.Metrics.counter m "snapstore_hits_total";
    c_misses = Obs.Metrics.counter m "snapstore_misses_total";
    c_evictions = Obs.Metrics.counter m "snapstore_evictions_total";
    c_pages_shared = Obs.Metrics.counter m "snapstore_pages_shared_total";
    c_pages_unique = Obs.Metrics.counter m "snapstore_pages_unique_total";
    g_resident = Obs.Metrics.gauge m "snapstore_resident_bytes";
    g_members = Obs.Metrics.gauge m "snapstore_members";
    g_index = Obs.Metrics.gauge m "snapstore_index_pages";
  }

let budget_bytes t = t.budget
let policy t = t.policy
let member_count t = Hashtbl.length t.members
let index_pages t = Hashtbl.length t.index
let hits t = t.hit_count
let misses t = t.miss_count
let evictions t = t.eviction_count
let pages_inserted t = t.pages_inserted_total
let pages_unique t = t.pages_unique_total

let dedup_ratio t =
  if t.pages_unique_total = 0 then 1.0
  else float_of_int t.pages_inserted_total /. float_of_int t.pages_unique_total

(* Residency in plain ints on the insert path; the int64 views are for
   callers. *)
let resident t =
  (Hashtbl.length t.index * Mem.Mconfig.page_size) + t.structure_total

let resident_bytes t = Int64.of_int (resident t)
let peak_resident_bytes t = Int64.of_int t.peak_bytes

let over_budget t =
  let budget = Int64.to_int t.budget in
  budget > 0 && resident t > budget

let refresh_gauges t =
  Obs.Metrics.set_gauge t.g_resident (float_of_int (resident t));
  Obs.Metrics.set_gauge t.g_members (float_of_int (Hashtbl.length t.members));
  Obs.Metrics.set_gauge t.g_index (float_of_int (Hashtbl.length t.index))

let members t =
  List.map (fun (fn_id, m) -> (fn_id, m.m_snap)) (Det.bindings t.members)

(* {1 Content identity} *)

(* A page's content key is djb2 over ["img:<rt>:<vpn>"] or, inside the
   function-specific region, ["fn:<rt>:<salt>:<vpn>"], folded into 58
   bits and never 0 (0 is Frame's "untagged"). djb2 is a left fold, so
   an insert hashes each prefix once and every page resumes from that
   state over its vpn's decimal digits. *)
let djb2_init = 5381
let djb2_mask = 0x3FFFFFFFFFFFFFF
let djb2 h code = ((h * 33) + code) land djb2_mask

let djb2_string h s = String.fold_left (fun h c -> djb2 h (Char.code c)) h s

(* Resume [h] over the decimal digits of [n]. The mask keeps the state
   modulo 2^58 and wrapping arithmetic preserves that residue, so
   folding k digits is [h * 33^k + sum of code_i * 33^(k-1-i)], masked
   once. Accumulating from the least significant digit divides only by
   the constant 10: [below] is the sum over the digits already taken
   and [pow] is 33 to their count. *)
let rec djb2_digits h n below pow =
  let below = below + ((Char.code '0' + (n mod 10)) * pow)
  and pow = pow * 33 in
  if n < 10 then ((h * pow) + below) land djb2_mask
  else djb2_digits h (n / 10) below pow

let content_key prefix vpn =
  let h = djb2_digits prefix vpn 0 1 in
  if h = 0 then 1 else h

(* Point the walk at [snap]'s key prefixes and function-specific
   region: the compiled bytecode occupies the last [source_bytes * 4]
   bytes of the heap bump extent (see [Unikernel.Guest.compile_into]),
   plus the page it straddles into. Everything outside keys on
   (runtime, vpn). *)
(* seussheat: cold — once per insert: resolves the two key prefixes and the region *)
let start_walk w (snap : Snapshot.t) hashes =
  let rt =
    Unikernel.Image.runtime_name snap.Snapshot.image.Unikernel.Image.runtime
  in
  let salt =
    match Unikernel.Guest.snapshot_program_source snap.Snapshot.guest with
    | Some src ->
        let heap_pages =
          Unikernel.Guest.snapshot_heap_pages snap.Snapshot.guest
        in
        let page = Mem.Mconfig.page_size in
        let code_pages = (((String.length src * 4) + page - 1) / page) + 1 in
        let code_pages =
          if code_pages < heap_pages then code_pages else heap_pages
        in
        w.fn_hi <- Unikernel.Gconst.heap_base + heap_pages;
        w.fn_lo <- w.fn_hi - code_pages;
        src
    | None ->
        (* No loaded program (not a compile-ok capture): refuse to share
           anything — salt every page by the snapshot's own name. *)
        w.fn_lo <- 0;
        w.fn_hi <- max_int;
        snap.Snapshot.name
  in
  w.img_key <- djb2_string djb2_init (Printf.sprintf "img:%s:" rt);
  w.fn_key <- djb2_string djb2_init (Printf.sprintf "fn:%s:%s:" rt salt);
  w.hashes <- hashes;
  w.pages <- 0;
  w.last_dir <- -1;
  w.dirs <- 0

(* seussheat: cold — the scratch grows to the largest delta seen, then is reused *)
let ensure_scratch w pages =
  if Array.length w.vpns < pages then begin
    let cap = max pages (2 * Array.length w.vpns) in
    w.vpns <- Array.make cap 0;
    w.entries <- Array.make cap Mem.Page_table.Entry.absent
  end

(* The snapshot's delta layer, in ascending vpn order. *)
let fold_delta (snap : Snapshot.t) ~init ~f =
  match snap.Snapshot.parent with
  | Some p ->
      Mem.Page_table.fold_delta ~parent:p.Snapshot.table snap.Snapshot.table
        ~init ~f
  | None -> Mem.Page_table.fold_present snap.Snapshot.table ~init ~f

let count_page n ~vpn:_ _ = n + 1

(* Record one delta page: its (vpn, entry), its content key, and
   whether it opens a directory the walk has not touched yet — the walk
   ascends, so counting transitions counts distinct directories. *)
let record_page w ~vpn e =
  let i = w.pages in
  w.vpns.(i) <- vpn;
  w.entries.(i) <- e;
  w.hashes.(i) <-
    content_key
      (if vpn >= w.fn_lo && vpn < w.fn_hi then w.fn_key else w.img_key)
      vpn;
  let dir = vpn / Mem.Mconfig.entries_per_table in
  if dir <> w.last_dir then begin
    w.last_dir <- dir;
    w.dirs <- w.dirs + 1
  end;
  w.pages <- i + 1;
  w

(* Member-private page-table overhead: its root copy plus one leaf per
   directory its delta touches (the leaves it privatized away from the
   base; everything else is structurally shared and charged to the
   base). Computed from the delta's vpns so it is stable — the private
   leaf count of the live table shifts as the capturing UC retires. *)
let structure_bytes ~dirs =
  let word = 8 in
  (512 * word) + (dirs * Mem.Mconfig.entries_per_table * word)

(* Rewriting a delta entry to the canonical frame of its content: take
   the reference [Page_table.set] will consume; [set] drops the old
   private frame's reference (freeing it — the store was its only
   holder beyond this table). *)
let adopt_canonical frames table ~vpn entry frame =
  Mem.Frame.incref frames frame;
  Mem.Page_table.set table ~vpn
    (Mem.Page_table.Entry.make ~frame
       ~writable:(Mem.Page_table.Entry.writable entry)
       ~cow:(Mem.Page_table.Entry.cow entry)
       ~dirty:(Mem.Page_table.Entry.dirty entry)
       ~accessed:(Mem.Page_table.Entry.accessed entry))

(* Dedup the recorded delta against the index: a page whose content is
   already indexed adopts the canonical frame, a new one registers its
   own frame as canonical. *)
let adopt_or_register t (snap : Snapshot.t) =
  let w = t.walk and frames = t.env.Osenv.frames in
  for i = 0 to w.pages - 1 do
    let h = w.hashes.(i) and e = w.entries.(i) in
    match Hashtbl.find t.index h with
    | ix ->
        ix.holders <- ix.holders + 1;
        if ix.ix_frame <> Mem.Page_table.Entry.frame e then
          adopt_canonical frames snap.Snapshot.table ~vpn:w.vpns.(i) e
            ix.ix_frame
    | exception Not_found ->
        let f = Mem.Page_table.Entry.frame e in
        Mem.Frame.set_tag frames f h;
        (* seussheat: cold — a new content page's entry, kept as long as the content is *)
        Hashtbl.replace t.index h { ix_frame = f; holders = 1 }
  done

(* {1 Membership} *)

(* Drop a member's index holds; returns the content pages whose last
   holder this was (their canonical frames die with the member's table
   release, which is the caller's side of the bargain). *)
let unlink t m =
  let indexed = Hashtbl.length t.index in
  let hashes = m.m_hashes in
  for i = 0 to Array.length hashes - 1 do
    let h = hashes.(i) in
    match Hashtbl.find t.index h with
    | ix ->
        ix.holders <- ix.holders - 1;
        if ix.holders = 0 then Hashtbl.remove t.index h
    | exception Not_found -> ()
  done;
  t.structure_total <- t.structure_total - m.m_structure_bytes;
  Hashtbl.remove t.members m.m_fn_id;
  indexed - Hashtbl.length t.index

(* Eviction order, smaller evicts first. LRU orders by last-use tick;
   the working-set policy sends snapshots that never recorded a working
   set first (nothing proves they are worth keeping warm), then the
   lowest working-set-per-delta-page ratio. Both break ties by tick then
   fn_id — a total order, since fn_id is unique. *)
let ws_pages m =
  match m.m_snap.Snapshot.working_set with
  | Some ws -> Array.length ws
  | None -> 0

let ws_ratio m ws =
  let d = m.m_delta_pages in
  float_of_int ws /. float_of_int (if d > 1 then d else 1)

let evicts_before policy a b =
  let c =
    match policy with
    | Config.Snap_lru -> 0
    | Config.Snap_ws ->
        let wa = ws_pages a and wb = ws_pages b in
        let c = Bool.compare (wa > 0) (wb > 0) in
        if c <> 0 then c else Float.compare (ws_ratio a wa) (ws_ratio b wb)
  in
  let c = if c <> 0 then c else Int.compare a.m_last_used b.m_last_used in
  (if c <> 0 then c else String.compare a.m_fn_id b.m_fn_id) < 0

let pick policy m best =
  if Snapshot.dependents m.m_snap > 0 || Snapshot.is_deleted m.m_snap then
    best
  else
    match best with
    | Some b when not (evicts_before policy m b) -> best
    (* seussheat: cold — a new running minimum, a handful per scan *)
    | _ -> Some m

let pick_lru _ m best = pick Config.Snap_lru m best
let pick_ws _ m best = pick Config.Snap_ws m best

(* The least member under [evicts_before] among the unpinned ones. *)
let victim t =
  let f =
    match t.policy with Config.Snap_lru -> pick_lru | Config.Snap_ws -> pick_ws
  in
  (* seusslint: allow hashtbl-order — the minimum over a total order (fn_id is unique and compared last) is the same whatever order the scan visits members in *)
  Hashtbl.fold f t.members None

(* The victim leaves the store before the first yield, so a concurrent
   budget sweep cannot pick it again. *)
let evict_one t m =
  let fn_id = m.m_fn_id in
  t.on_evict ~fn_id;
  let freed = unlink t m in
  Osenv.burn t.env Cost.snap_evict_fixed;
  let deleted = Snapshot.try_delete ~env:t.env m.m_snap in
  t.eviction_count <- t.eviction_count + 1;
  Obs.Metrics.inc t.c_evictions;
  (* seussheat: cold — one event per eviction *)
  Osenv.emit t.env
    (Obs.Event.Snap_evict
       {
         fn_id;
         pages_freed = freed;
         resident_bytes = Int64.of_int (resident t);
         policy = Config.policy_name t.policy;
       });
  ignore deleted

let rec enforce_budget t =
  if over_budget t then
    match victim t with
    | None -> () (* every member is pinned: tolerate the overrun *)
    | Some m ->
        evict_one t m;
        enforce_budget t

(* seussheat: cold — once per insert: the delta and dedup events *)
let emit_insert_events t (snap : Snapshot.t) ~delta_pages ~shared ~unique =
  Osenv.emit t.env
    (Obs.Event.Snap_delta
       {
         snapshot = snap.Snapshot.name;
         parent =
           (match snap.Snapshot.parent with
           | Some p -> p.Snapshot.name
           | None -> "-");
         delta_pages;
         delta_bytes = Mem.Mconfig.bytes_of_pages delta_pages;
       });
  Osenv.emit t.env
    (Obs.Event.Snap_dedup
       {
         snapshot = snap.Snapshot.name;
         delta_pages;
         shared_pages = shared;
         unique_pages = unique;
       })

(* seussheat: cold — a checked misuse, never taken by a correct caller *)
let duplicate_member fn_id =
  invalid_arg (Printf.sprintf "Snapstore.insert: duplicate member %S" fn_id)

(* Two walks over the delta: one counts it to charge the index time,
   the other — after the burn, with no yield until the index is updated
   — records every page into the scratch and keys it into the member's
   hash array, the one allocation an insert keeps. *)
let insert t ~fn_id (snap : Snapshot.t) =
  if Hashtbl.mem t.members fn_id then duplicate_member fn_id;
  let delta_pages = fold_delta snap ~init:0 ~f:count_page in
  Osenv.burn t.env (Cost.snap_index_time ~delta_pages);
  let w = t.walk in
  ensure_scratch w delta_pages;
  (* seussheat: cold — the member's hash array, the one allocation an insert keeps *)
  let hashes = Array.make delta_pages 0 in
  start_walk w snap hashes;
  ignore (fold_delta snap ~init:w ~f:record_page);
  let indexed = Hashtbl.length t.index in
  adopt_or_register t snap;
  let unique = Hashtbl.length t.index - indexed in
  let shared = delta_pages - unique in
  let structure = structure_bytes ~dirs:w.dirs in
  w.hashes <- no_hashes;
  let m =
    (* seussheat: cold — the member record, one per insert *)
    {
      m_fn_id = fn_id;
      m_snap = snap;
      m_hashes = hashes;
      m_delta_pages = delta_pages;
      m_shared_pages = shared;
      m_unique_pages = unique;
      m_structure_bytes = structure;
      m_last_used = t.tick;
      m_uses = 0;
    }
  in
  t.tick <- t.tick + 1;
  Hashtbl.replace t.members fn_id m;
  t.structure_total <- t.structure_total + structure;
  t.pages_inserted_total <- t.pages_inserted_total + delta_pages;
  t.pages_unique_total <- t.pages_unique_total + unique;
  Obs.Metrics.inc t.c_inserts;
  for _ = 1 to shared do Obs.Metrics.inc t.c_pages_shared done;
  for _ = 1 to unique do Obs.Metrics.inc t.c_pages_unique done;
  emit_insert_events t snap ~delta_pages ~shared ~unique;
  enforce_budget t;
  let res = resident t in
  if res > t.peak_bytes then t.peak_bytes <- res;
  refresh_gauges t

let lookup t fn_id =
  match Hashtbl.find_opt t.members fn_id with
  | None ->
      t.miss_count <- t.miss_count + 1;
      Obs.Metrics.inc t.c_misses;
      None
  | Some m ->
      m.m_last_used <- t.tick;
      t.tick <- t.tick + 1;
      m.m_uses <- m.m_uses + 1;
      t.hit_count <- t.hit_count + 1;
      Obs.Metrics.inc t.c_hits;
      Some m.m_snap

let forget t ~fn_id snap =
  match Hashtbl.find_opt t.members fn_id with
  | None -> Snapshot.try_delete ~env:t.env snap
  | Some m ->
      if Snapshot.try_delete ~env:t.env m.m_snap then begin
        ignore (unlink t m);
        refresh_gauges t;
        true
      end
      else false

let drain t =
  List.iter
    (fun (_, m) ->
      ignore (Snapshot.try_delete ~env:t.env m.m_snap);
      ignore (unlink t m))
    (Det.bindings t.members);
  refresh_gauges t

(* {1 Self-validation (tests)} *)

let check t =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let frames = t.env.Osenv.frames in
  (* Index entries point at live, correctly tagged frames with a
     positive holder count... *)
  let recount = Hashtbl.create (Hashtbl.length t.index) in
  Det.iter
    (fun h ix ->
      if ix.holders <= 0 then bad "index %d: holders %d <= 0" h ix.holders;
      if not (Mem.Frame.is_live frames ix.ix_frame) then
        bad "index %d: canonical frame %d is dead" h ix.ix_frame
      else if Mem.Frame.tag frames ix.ix_frame <> h then
        bad "index %d: frame %d tagged %d" h ix.ix_frame
          (Mem.Frame.tag frames ix.ix_frame))
    t.index;
  (* ...and the holder counts are exactly the members' hash multiset. *)
  let structure = ref 0 in
  Det.iter
    (fun fn_id m ->
      if Snapshot.is_deleted m.m_snap then
        bad "member %s: snapshot deleted behind the store" fn_id;
      if m.m_shared_pages + m.m_unique_pages <> m.m_delta_pages then
        bad "member %s: shared %d + unique %d <> delta %d" fn_id
          m.m_shared_pages m.m_unique_pages m.m_delta_pages;
      structure := !structure + m.m_structure_bytes;
      Array.iter
        (fun h ->
          if not (Hashtbl.mem t.index h) then
            bad "member %s: hash %d missing from index" fn_id h;
          Hashtbl.replace recount h
            (1 + Option.value ~default:0 (Hashtbl.find_opt recount h)))
        m.m_hashes)
    t.members;
  Det.iter
    (fun h ix ->
      let n = Option.value ~default:0 (Hashtbl.find_opt recount h) in
      if n <> ix.holders then
        bad "index %d: holders %d but %d member pages" h ix.holders n)
    t.index;
  if !structure <> t.structure_total then
    bad "structure accounting: cached %d, recomputed %d" t.structure_total
      !structure;
  (* Over budget is only legal while every member is pinned. *)
  (if over_budget t then
     match victim t with
     | Some m ->
         bad "over budget (%Ld > %Ld) with evictable member %s"
           (resident_bytes t) t.budget m.m_fn_id
     | None -> ());
  List.rev !problems
