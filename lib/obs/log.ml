type record = { time : float; ev : Event.t }

(* The retained window is a struct of arrays: clock readings unboxed in
   [times], events by reference in [evs]. Emitting stores into both, so
   retaining an event allocates nothing beyond the event itself. *)
type t = {
  clock : unit -> float;
  times : Float.Array.t;
  evs : Event.t array;
  mutable head : int;  (* next write slot *)
  mutable len : int;
  mutable dropped : int;
  mutable subscribers : (record -> unit) list;  (* subscription order *)
  mutable emitted : int;
  mutable on_drop : unit -> unit;
}

let default_capacity = 16384

(* What an empty slot holds, so a cleared window keeps no event alive. *)
let filler = Event.Oom_wake { free_bytes = 0L }

let create ?(capacity = default_capacity) ~clock () =
  if capacity <= 0 then invalid_arg "Log.create: capacity must be positive";
  {
    clock;
    times = Float.Array.make capacity 0.0;
    evs = Array.make capacity filler;
    head = 0;
    len = 0;
    dropped = 0;
    subscribers = [];
    emitted = 0;
    on_drop = ignore;
  }

let set_on_drop t f = t.on_drop <- f

(* Top-level so emitting to subscribers allocates no iterator closure. *)
let rec notify r = function
  | [] -> ()
  | f :: rest ->
      f r;
      notify r rest

let emit t ev =
  let time = t.clock () in
  let cap = Array.length t.evs in
  Float.Array.set t.times t.head time;
  t.evs.(t.head) <- ev;
  t.head <- (if t.head + 1 = cap then 0 else t.head + 1);
  t.emitted <- t.emitted + 1;
  if t.len < cap then t.len <- t.len + 1
  else begin
    t.dropped <- t.dropped + 1;
    t.on_drop ()
  end;
  match t.subscribers with
  | [] -> ()
  | subs ->
      (* seussheat: cold — the record is built only for subscribers, which only traced runs attach *)
      notify { time; ev } subs

let subscribe t f =
  (* Append (subscription is rare; emission is the hot path). *)
  t.subscribers <- t.subscribers @ [ f ]

(* Slot of the [i]-th retained record, oldest first. *)
let slot t i =
  let cap = Array.length t.evs in
  (t.head - t.len + cap + i) mod cap

let records t =
  List.init t.len (fun i ->
      let j = slot t i in
      { time = Float.Array.get t.times j; ev = t.evs.(j) })

let emitted t = t.emitted
let dropped t = t.dropped

let clear t =
  Array.fill t.evs 0 (Array.length t.evs) filler;
  t.head <- 0;
  t.len <- 0

let to_jsonl t =
  let buf = Buffer.create 4096 in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    let time = Float.Array.get t.times j in
    Buffer.add_string buf (Json.to_string (Event.to_json ~time t.evs.(j)));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let parse_jsonl text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else begin
          match Json.of_string line with
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
          | Ok json -> (
              match Event.of_json json with
              | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
              | Ok (time, ev) -> go (lineno + 1) ({ time; ev } :: acc) rest)
        end
  in
  go 1 [] lines
