type fault = No_fault | Zero_fill | Cow_copy

type t = {
  frames : Frame.t;
  pt : Page_table.t;
  mutable zero_fills : int;
  mutable cow_copies : int;
  (* Incremental counters: captures and deploys must be O(root), never
     O(mapped pages), for the 65k-function experiments to run. *)
  mutable dirty_count : int;
  mutable mapped_count : int;
  (* Instrumentation: invoked on every resolved fault. The owner (a UC)
     installs it so the fault handler feeds the node's telemetry without
     this layer depending on it. *)
  mutable on_fault : fault -> unit;
  (* Access trace (REAP-style working-set recording): while armed, every
     resolved fault appends its vpn, in fault order. Reversed buffer;
     [take_trace] restores order. *)
  mutable trace : int list option;
  mutable trace_len : int;
}

type write_stats = { pages : int; zero_fills : int; cow_copies : int }

type prefault_stats = {
  requested : int;
  prefault_zero_fills : int;
  prefault_cow_copies : int;
  already_mapped : int;
}

let create frames =
  {
    frames;
    pt = Page_table.create frames;
    zero_fills = 0;
    cow_copies = 0;
    dirty_count = 0;
    mapped_count = 0;
    on_fault = ignore;
    trace = None;
    trace_len = 0;
  }

(* The source must already be frozen (read-only + copy-on-write, clean
   dirty bits) — [Snapshot.capture] guarantees this. Sweeping the leaves
   here would make deploys O(mapped pages) instead of O(root). *)
let of_table ?(mapped_hint = -1) frames source =
  let pt = Page_table.clone_shallow source in
  let mapped =
    if mapped_hint >= 0 then mapped_hint else Page_table.count_present pt
  in
  {
    frames;
    pt;
    zero_fills = 0;
    cow_copies = 0;
    dirty_count = 0;
    mapped_count = mapped;
    on_fault = ignore;
    trace = None;
    trace_len = 0;
  }

let table t = t.pt
let allocator t = t.frames

let set_fault_hook t f = t.on_fault <- f

let trace_limit = 65_536

let start_trace t =
  t.trace <- Some [];
  t.trace_len <- 0

(* seussheat: cold — records only while a REAP working-set trace is armed, once per function *)
let record_fault t vpn =
  match t.trace with
  | None -> ()
  | Some vpns ->
      (* A runaway trace (a function touching more pages than any
         sensible working set) stops recording rather than growing
         unboundedly; [take_trace] still returns the prefix. *)
      if t.trace_len < trace_limit then begin
        t.trace <- Some (vpn :: vpns);
        t.trace_len <- t.trace_len + 1
      end

let take_trace t =
  match t.trace with
  | None -> []
  | Some vpns ->
      t.trace <- None;
      t.trace_len <- 0;
      List.rev vpns

let tracing t = t.trace <> None

(* seussheat: cold — the error path of a write to a read-only page *)
let protection_violation op vpn =
  invalid_arg
    (Printf.sprintf "Addr_space.%s: protection violation at vpn %d" op vpn)

let touch_write t ~vpn =
  let e = Page_table.get t.pt ~vpn in
  if not (Page_table.Entry.present e) then begin
    let frame = Frame.alloc t.frames in
    Page_table.set t.pt ~vpn
      (Page_table.Entry.make ~frame ~writable:true ~cow:false ~dirty:true
         ~accessed:true);
    t.zero_fills <- t.zero_fills + 1;
    t.dirty_count <- t.dirty_count + 1;
    t.mapped_count <- t.mapped_count + 1;
    record_fault t vpn;
    t.on_fault Zero_fill;
    Zero_fill
  end
  else if Page_table.Entry.writable e then begin
    if not (Page_table.Entry.dirty e) then t.dirty_count <- t.dirty_count + 1;
    if not (Page_table.Entry.dirty e && Page_table.Entry.accessed e) then
      Page_table.set t.pt ~vpn
        (Page_table.Entry.with_flags ~dirty:true ~accessed:true e);
    No_fault
  end
  else if Page_table.Entry.cow e then begin
    (* Clone the shared frame into a private writable copy. *)
    let frame = Frame.alloc t.frames in
    Page_table.set t.pt ~vpn
      (Page_table.Entry.make ~frame ~writable:true ~cow:false ~dirty:true
         ~accessed:true);
    t.cow_copies <- t.cow_copies + 1;
    t.dirty_count <- t.dirty_count + 1;
    record_fault t vpn;
    t.on_fault Cow_copy;
    Cow_copy
  end
  else protection_violation "touch_write" vpn

let touch_read t ~vpn =
  let e = Page_table.get t.pt ~vpn in
  if Page_table.Entry.present e && not (Page_table.Entry.accessed e) then
    Page_table.set t.pt ~vpn (Page_table.Entry.with_flags ~accessed:true e)

let write_range t ~vpn ~pages =
  if pages < 0 then invalid_arg "Addr_space.write_range: negative count";
  let zero = ref 0 and cow = ref 0 in
  for p = vpn to vpn + pages - 1 do
    match touch_write t ~vpn:p with
    | No_fault -> ()
    | Zero_fill -> incr zero
    | Cow_copy -> incr cow
  done;
  { pages; zero_fills = !zero; cow_copies = !cow }

let write_bytes t ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Addr_space.write_bytes: negative";
  if len = 0 then { pages = 0; zero_fills = 0; cow_copies = 0 }
  else begin
    let first = addr / Mconfig.page_size in
    let last = (addr + len - 1) / Mconfig.page_size in
    write_range t ~vpn:first ~pages:(last - first + 1)
  end

(* Batched working-set installation (REAP): bring every vpn to exactly
   the state a demand [touch_write] would leave it in — fresh zero frame,
   private COW copy, or dirty+accessed flags on an already-writable page —
   without taking a per-page fault. Lifetime/mapped/dirty counters move
   exactly as under demand faulting (prefaulted pages are private pages
   and must charge footprints identically); only the per-fault hook stays
   silent, because no faults occur — the caller charges one batched cost
   from the returned stats instead. Structural sharing is preserved: only
   leaves containing prefaulted vpns are privatized, by the same
   [Page_table.set] path demand faults use.
   @raise Frame.Out_of_memory mid-batch like [write_range]. *)
let prefault t ~vpns =
  let zero = ref 0 and cow = ref 0 and present = ref 0 in
  List.iter
    (fun vpn ->
      let e = Page_table.get t.pt ~vpn in
      if not (Page_table.Entry.present e) then begin
        let frame = Frame.alloc t.frames in
        Page_table.set t.pt ~vpn
          (Page_table.Entry.make ~frame ~writable:true ~cow:false ~dirty:true
             ~accessed:true);
        t.zero_fills <- t.zero_fills + 1;
        t.dirty_count <- t.dirty_count + 1;
        t.mapped_count <- t.mapped_count + 1;
        incr zero
      end
      else if Page_table.Entry.writable e then begin
        if not (Page_table.Entry.dirty e) then
          t.dirty_count <- t.dirty_count + 1;
        if not (Page_table.Entry.dirty e && Page_table.Entry.accessed e) then
          Page_table.set t.pt ~vpn
            (Page_table.Entry.with_flags ~dirty:true ~accessed:true e);
        incr present
      end
      else if Page_table.Entry.cow e then begin
        let frame = Frame.alloc t.frames in
        Page_table.set t.pt ~vpn
          (Page_table.Entry.make ~frame ~writable:true ~cow:false ~dirty:true
             ~accessed:true);
        t.cow_copies <- t.cow_copies + 1;
        t.dirty_count <- t.dirty_count + 1;
        incr cow
      end
      else protection_violation "prefault" vpn)
    vpns;
  {
    requested = List.length vpns;
    prefault_zero_fills = !zero;
    prefault_cow_copies = !cow;
    already_mapped = !present;
  }

let mapped_pages t = t.mapped_count
let mapped_pages_slow t = Page_table.count_present t.pt
let resident_bytes t = Mconfig.bytes_of_pages (mapped_pages t)
let dirty_pages t = t.dirty_count
let dirty_pages_slow t = Page_table.count_dirty t.pt

let clear_dirty t =
  Page_table.clear_dirty_all t.pt;
  t.dirty_count <- 0

let freeze t =
  Page_table.mark_all_cow_clean t.pt;
  t.dirty_count <- 0
let lifetime_zero_fills (t : t) = t.zero_fills
let lifetime_cow_copies (t : t) = t.cow_copies
let release t = Page_table.release t.pt
