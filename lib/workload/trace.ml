type event = { at : float; fn : int }

type t = {
  functions : int;
  alpha : float;
  horizon : float;
  arrival : string;
  rate : float;
  seed : int64;
  events : event array;
}

(* Arrivals and popularity draw from separate streams split off the
   seed, so adding a function to the set cannot shift arrival times. *)
let synthesize ~functions ~alpha ~arrival ~horizon ~seed =
  let root = Sim.Prng.create seed in
  let arrival_rng = Sim.Prng.split root in
  let pop_rng = Sim.Prng.split root in
  let zipf = Zipf.create ~alpha ~n:functions in
  let times = Arrival.times arrival ~horizon arrival_rng in
  {
    functions;
    alpha;
    horizon;
    arrival = Arrival.describe arrival;
    rate = Arrival.mean_rate arrival;
    seed;
    events =
      Array.map (fun at -> { at; fn = Zipf.sample zipf pop_rng }) times;
  }

let equal a b =
  a.functions = b.functions
  && a.alpha = b.alpha
  && a.horizon = b.horizon
  && String.equal a.arrival b.arrival
  && a.rate = b.rate
  && Int64.equal a.seed b.seed
  && Array.length a.events = Array.length b.events
  && Array.for_all2 (fun x y -> x.at = y.at && x.fn = y.fn) a.events b.events

let schema = "seuss-load-trace/1"

let header t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String schema);
      ("functions", Obs.Json.Int t.functions);
      ("alpha", Obs.Json.Float t.alpha);
      ("horizon", Obs.Json.Float t.horizon);
      ("arrival", Obs.Json.String t.arrival);
      ("rate", Obs.Json.Float t.rate);
      ("seed", Obs.Json.String (Int64.to_string t.seed));
      ("events", Obs.Json.Int (Array.length t.events));
    ]

let to_jsonl t =
  let buf = Buffer.create (64 * (Array.length t.events + 1)) in
  Buffer.add_string buf (Obs.Json.to_string (header t));
  Buffer.add_char buf '\n';
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("at", Obs.Json.Float e.at); ("fn", Obs.Json.Int e.fn) ]));
      Buffer.add_char buf '\n')
    t.events;
  Buffer.contents buf

type error = { event : int option; field : string; reason : string }

let error_to_string e =
  let where =
    match e.event with
    | None -> "trace header"
    | Some i -> Printf.sprintf "trace event %d" i
  in
  if e.field = "" then Printf.sprintf "%s: %s" where e.reason
  else Printf.sprintf "%s: %S %s" where e.field e.reason

let ( let* ) r f = Result.bind r f

let fail ?event ?(field = "") fmt =
  Printf.ksprintf (fun reason -> Error { event; field; reason }) fmt

let field ?event name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> Ok v
  | None -> fail ?event ~field:name "is missing or has the wrong type"

let check name ok why v = if ok v then Ok v else fail ~field:name "%s" why

let finite_nonneg x = Float.is_finite x && x >= 0.0

let json ?event line =
  match Obs.Json.of_string line with
  | Ok j -> Ok j
  | Error e -> fail ?event "not JSON: %s" e

(* Everything [Replay] relies on is checked here: a trace that decodes
   replays exactly the arrivals it lists. *)
let of_jsonl s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> fail "empty document"
  | hd :: rest ->
      let* h = json hd in
      let* sch = field "schema" Obs.Json.to_str h in
      let* _ = check "schema" (String.equal schema) ("is not " ^ schema) sch in
      let* functions = field "functions" Obs.Json.to_int h in
      let* functions =
        check "functions" (fun n -> n >= 1) "must be at least 1" functions
      in
      let* alpha = field "alpha" Obs.Json.to_float h in
      let* alpha = check "alpha" Float.is_finite "must be finite" alpha in
      let* horizon = field "horizon" Obs.Json.to_float h in
      let* horizon =
        check "horizon" finite_nonneg "must be finite and non-negative" horizon
      in
      let* arrival = field "arrival" Obs.Json.to_str h in
      let* rate = field "rate" Obs.Json.to_float h in
      let* rate =
        check "rate" finite_nonneg "must be finite and non-negative" rate
      in
      let* seed_s = field "seed" Obs.Json.to_str h in
      let* seed =
        match Int64.of_string_opt seed_s with
        | Some v -> Ok v
        | None -> fail ~field:"seed" "is not an int64"
      in
      let* count = field "events" Obs.Json.to_int h in
      let found = List.length rest in
      if count <> found then
        fail ~field:"events" "promises %d events, found %d" count found
      else
        let events = Array.make count { at = 0.0; fn = 0 } in
        let rec fill event prev = function
          | [] -> Ok ()
          | line :: rest ->
              let* j = json ~event line in
              let* at = field ~event "at" Obs.Json.to_float j in
              let* fn = field ~event "fn" Obs.Json.to_int j in
              if not (finite_nonneg at) then
                fail ~event ~field:"at" "must be finite and non-negative"
              else if at < prev then
                fail ~event ~field:"at" "%g is before the previous event's %g"
                  at prev
              else if at >= horizon then
                fail ~event ~field:"at" "%g is not before the horizon %g" at
                  horizon
              else if fn < 0 || fn >= functions then
                fail ~event ~field:"fn" "%d is not in [0, %d)" fn functions
              else begin
                events.(event) <- { at; fn };
                fill (event + 1) at rest
              end
        in
        let* () = fill 0 0.0 rest in
        Ok { functions; alpha; horizon; arrival; rate; seed; events }

let save ~path t =
  let oc = open_out path in
  output_string oc (to_jsonl t);
  close_out oc

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      Result.map_error error_to_string (of_jsonl body)
