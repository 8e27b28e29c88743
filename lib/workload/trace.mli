(** The trace model: a materialized open-loop workload.

    A trace is the full arrival schedule of one run — every invocation's
    instant and function rank — synthesized from a {!Zipf} popularity
    model and an {!Arrival} process, or loaded from JSONL. Synthesis is
    a pure function of its parameters (two private PRNG streams split
    from the seed: one for arrivals, one for popularity), so equal seeds
    give byte-identical traces and the whole load plane is replayable
    from a one-line header. *)

type event = { at : float; fn : int }

type t = {
  functions : int;
  alpha : float;
  horizon : float;  (** seconds of simulated arrivals *)
  arrival : string;  (** {!Arrival.describe} of the generating process *)
  rate : float;  (** offered mean arrivals/second *)
  seed : int64;
  events : event array;  (** time-sorted *)
}

val synthesize :
  functions:int -> alpha:float -> arrival:Arrival.t -> horizon:float ->
  seed:int64 -> t
(** @raise Invalid_argument on an empty function set or a negative
    horizon (via {!Zipf.create} / {!Arrival.simulate}). *)

val equal : t -> t -> bool

val to_jsonl : t -> string
(** One header object (schema, parameters, event count), then one
    [{"at":..,"fn":..}] line per event; trailing newline. Canonical:
    equal traces render byte-identically. *)

type error = {
  event : int option;  (** 0-based event index; [None] for the header *)
  field : string;  (** the offending field; [""] when the whole line is bad *)
  reason : string;
}

val error_to_string : error -> string

val of_jsonl : string -> (t, error) result
(** Decode {!to_jsonl} output. Never raises. An [Ok] trace is one
    {!Replay} can replay faithfully: [functions >= 1]; [alpha] finite;
    [horizon] and [rate] finite and non-negative; every event's [at]
    finite, non-negative, not before the previous event's and before
    [horizon]; every [fn] in [\[0, functions)]. Anything else is an
    [Error] naming the field and the event index. *)

val save : path:string -> t -> unit

val load : path:string -> (t, string) result
(** Read and decode a file; [Error] carries the I/O error or
    {!error_to_string} of the decode error. *)
