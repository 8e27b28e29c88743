(* Happens-before schedule sanitizer.

   In a discrete-event simulation the only order that can silently flip
   is the order of events at *equal* timestamps: across distinct times
   the clock itself serializes everything. Two processes that touch the
   same shared cell at the same simulated instant, with at least one
   write and no synchronization path between them, are exactly the
   accesses whose outcome the tie shuffler can permute — so that, and
   only that, is what this checker reports.

   Ordering edges come from the cooperative structure the simulator
   already has: spawning a process orders it after everything its parent
   did first, and the blocking primitives (Semaphore, Channel, Ivar)
   publish a release→acquire edge through a per-object [sync] record.
   Edges compose through vector clocks, TSan-style, but pruned to the
   current timestamp: a cell forgets its access history whenever the
   clock advances.

   The checker is dormant unless {!enable}d on an engine. Dormant, every
   hook is a cheap no-op that draws nothing and allocates nothing, so an
   unsanitized run is bit-identical to a build without this module. *)

(* Vector clocks as sorted association lists (pid -> count). Process
   fan-out per experiment is modest and entries are only created at
   spawn/sync, so the simple representation is fine. *)
type vc = (int * int) list

let vc_get vc pid = match List.assoc_opt pid vc with Some n -> n | None -> 0

let rec vc_join a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (pa, ca) :: ta, (pb, cb) :: tb ->
      if pa < pb then (pa, ca) :: vc_join ta b
      else if pb < pa then (pb, cb) :: vc_join a tb
      else (pa, max ca cb) :: vc_join ta tb

let vc_set vc pid n =
  let rec go = function
    | [] -> [ (pid, n) ]
    | (p, c) :: rest ->
        if p < pid then (p, c) :: go rest
        else if p = pid then (pid, n) :: rest
        else (pid, n) :: (p, c) :: rest
  in
  go vc

type kind = Write_write | Read_write

let kind_name = function
  | Write_write -> "write/write"
  | Read_write -> "read/write"

type race = {
  cell : string;
  kind : kind;
  time : float;
  first_pid : int;
  second_pid : int;
}

type state = {
  engine : Engine.t;
  mutable next_pid : int;
  mutable races : race list; (* newest first *)
  mutable reporters : (race -> unit) list; (* registration order *)
}

let state_key : state Engine.key = Engine.key ()

let state_of engine = Engine.find engine state_key

let enabled engine = Option.is_some (state_of engine)

let fresh_pid st =
  st.next_pid <- st.next_pid + 1;
  st.next_pid

(* A process's identity and clock. It carries the checker state so the
   spawn fork can mint the child's pid. *)
type pstate = { st : state; pid : int; mutable vc : vc }

(* Spawn edge: the child is ordered after the parent's history at the
   spawn point; bumping the parent's own component afterwards keeps the
   parent's *later* accesses concurrent with the child. *)
let fork parent =
  let pid = fresh_pid parent.st in
  let vc = parent.vc in
  parent.vc <- vc_set parent.vc parent.pid (vc_get parent.vc parent.pid + 1);
  { st = parent.st; pid; vc = vc_set vc pid 1 }

let pstate_key = Engine.key ~fork ()

(* The calling process's sanitizer state, created on first use: a
   process that was never forked from an instrumented parent still gets
   its own identity, just with no ordering edges behind it. *)
let pstate st =
  let engine = st.engine in
  match Engine.find_local engine pstate_key with
  | Some p -> p
  | None ->
      let pid = fresh_pid st in
      let p = { st; pid; vc = [ (pid, 1) ] } in
      Engine.set_local engine pstate_key (Some p);
      p

let enable engine =
  match state_of engine with
  | Some st -> st
  | None ->
      let st = { engine; next_pid = 0; races = []; reporters = [] } in
      Engine.set engine state_key (Some st);
      st

let add_reporter engine f =
  match state_of engine with
  | None -> invalid_arg "Hb.add_reporter: sanitizer not enabled"
  | Some st -> st.reporters <- st.reporters @ [ f ]

let races engine =
  match state_of engine with None -> [] | Some st -> List.rev st.races

let race_count engine =
  match state_of engine with None -> 0 | Some st -> List.length st.races

(* {1 Sync objects} *)

(* One per blocking primitive instance. [svc] accumulates the joined
   clocks of every signaller; observers join it into their own clock. *)
type sync = { mutable svc : vc }

let make_sync () = { svc = [] }

(* Hooks are ambient: they find the running engine (if any) and its
   checker state (if armed). Dormant, that is two reads and a miss, and
   allocates nothing. *)
let armed () =
  match Engine.self_opt () with None -> None | Some engine -> state_of engine

let signal sync =
  match armed () with
  | None -> ()
  | Some st ->
      let p = pstate st in
      sync.svc <- vc_join sync.svc p.vc;
      p.vc <- vc_set p.vc p.pid (vc_get p.vc p.pid + 1)

let observe sync =
  match armed () with
  | Some st when sync.svc <> [] ->
      let p = pstate st in
      p.vc <- vc_join p.vc sync.svc
  | _ -> ()

(* {1 Registered shared cells} *)

type access = { pid : int; write : bool; own : int (* accessor's clock *) }

type cell = {
  name : string;
  mutable atime : float;
  mutable accs : access list; (* accesses at [atime] only *)
}

let cell ~name = { name; atime = neg_infinity; accs = [] }

let cell_name c = c.name

let report st race =
  st.races <- race :: st.races;
  List.iter (fun f -> f race) st.reporters

let access c ~write =
  match armed () with
  | None -> ()
  | Some st ->
      let engine = st.engine in
      let now = Engine.now engine in
      if now > c.atime then begin
        (* The clock moved: everything earlier is serialized by time. *)
        c.atime <- now;
        c.accs <- []
      end;
      let p = pstate st in
      let own = vc_get p.vc p.pid in
      (* An equal-or-stronger access by this process at this instant was
         already checked; re-recording it would only duplicate reports. *)
      let covered =
        List.exists
          (fun a -> a.pid = p.pid && a.own = own && (a.write || not write))
          c.accs
      in
      if not covered then begin
        List.iter
          (fun a ->
            if a.pid <> p.pid && (a.write || write) then
              (* [a] happened-before us iff its own-clock value at the
                 access is covered by our view of its component. *)
              if a.own > vc_get p.vc a.pid then
                report st
                  {
                    cell = c.name;
                    kind = (if a.write && write then Write_write else Read_write);
                    time = now;
                    first_pid = a.pid;
                    second_pid = p.pid;
                  })
          c.accs;
        c.accs <- { pid = p.pid; write; own } :: c.accs
      end

let read c = access c ~write:false
let write c = access c ~write:true
