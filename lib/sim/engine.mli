(** Deterministic discrete-event simulation engine.

    The engine replaces the paper's physical 16-core testbed: simulated time
    advances only when events fire, so latency, throughput and contention are
    exact functions of the modeled costs rather than of the host machine.

    Processes are cooperative coroutines built on OCaml 5 effect handlers.
    Inside a process, {!sleep} advances simulated time and blocking
    primitives ({!Ivar}, {!Semaphore}, {!Channel}) suspend via {!suspend}.
    Events at equal timestamps fire in FIFO order (a monotonic sequence
    number breaks ties), which makes whole-experiment runs reproducible.
    The schedule sanitizer ([tie_seed] below, plus the {!Hb} checker)
    deliberately perturbs that tie order to flush out code that silently
    depends on it. *)

type t

val create :
  ?seed:int64 -> ?tie_seed:int64 -> ?deadlock:bool -> ?own:bool -> unit -> t
(** [create ?seed ()] is a fresh engine at time [0.0]. [seed] (default
    [1L]) initialises the engine's PRNG, from which experiments derive all
    randomness.

    [deadlock] arms the deadlock sanitizer: blocking primitives register
    their parked waiters with the engine, so {!stranded_waiters} can
    walk the wait-for graph at natural quiescence. When [deadlock] is
    absent, {!Knobs.deadlock} ([SEUSS_DEADLOCK]) supplies it. An armed
    engine whose run strands nobody makes no extra PRNG draws, schedules
    nothing extra, and prints nothing, so its outputs stay
    byte-identical to an unarmed run.

    [own] arms the ownership census: each node registers an
    {!at_quiescence} hook that counts the resources it still holds —
    leaked frames, snapshot references, pinned snapshots, undestroyed
    UCs. When [own] is absent, {!Knobs.own} ([SEUSS_OWN]) supplies it.
    Unarmed, nothing registers and outputs stay byte-identical.

    [tie_seed] arms the schedule sanitizer's tie shuffler: events at
    equal timestamps fire in a seeded-random order instead of FIFO
    (order across distinct timestamps is untouched). Experiments that
    are honestly deterministic produce byte-identical outputs under any
    [tie_seed]; a divergence pinpoints latent dependence on same-time
    event order. When [tie_seed] is absent, {!Knobs.shuffle_seed}
    ([SEUSS_SHUFFLE_SEED]) supplies it, so released binaries can be swept
    without code changes (the unit-test FIFO contract assumes the
    variable is unset under [dune runtest]). Unarmed engines draw
    nothing from the shuffle stream and keep exact FIFO tie-breaking. *)

val tie_shuffling : t -> bool
(** Whether the tie shuffler is armed on this engine. *)

val now : t -> float
(** Current simulated time, in seconds. *)

val rng : t -> Prng.t

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs callback [f] at [now t +. delay].
    @raise Invalid_argument if [delay] is negative or not finite. *)

val spawn : t -> ?name:string -> ?daemon:bool -> (unit -> unit) -> unit
(** [spawn t f] starts process [f] at the current time. [f] may use
    {!sleep} and the blocking primitives. An exception escaping [f] aborts
    the whole simulation run ([name] is reported for diagnosis).

    [daemon] (default [false]) marks a process that is *expected* to
    park forever — an accept loop, a refill loop. Daemons are excluded
    from {!stuck_waiters} and from the deadlock report unless they sit
    on an actual wait cycle. *)

val spawn_supervised :
  t ->
  ?name:string ->
  ?daemon:bool ->
  ?on_crash:(string -> exn -> unit) ->
  (unit -> unit) ->
  unit
(** Like {!spawn}, but an exception escaping [f] — including an injected
    crash from the fault plane — kills only this process: the failure is
    recorded in {!failures}, [on_crash] (default: nothing) is notified,
    and the run continues. The supervision survives suspensions: a crash
    after any number of {!sleep}s or {!suspend}s is still contained. *)

val failures : t -> (string * exn) list
(** Supervised processes that died so far, oldest first, with the
    exception that killed each. *)

val run : ?until:float -> t -> unit
(** [run t] executes events in timestamp order until the queue drains, or
    until simulated time would exceed [until] (remaining events are left
    queued). Re-entrant calls are rejected. *)

val events_executed : t -> int
(** Total events fired so far, for tests and sanity checks. *)

val pending : t -> int
(** Events currently queued in the heap. Inside a running process this
    counts everyone else's scheduled work — a periodic daemon can use
    [pending t = 0] as its termination signal: nothing else will ever
    run, so sleeping again would only stretch the simulation. *)

(** {1 Engine self-profiling}

    Always-on counters, maintained with integer compares only: no
    allocation, no PRNG draws, no schedule effect. [seussbench] reads
    them for its [engine.*] rows. *)

type perf = {
  dispatched : int;  (** events fired (heap pops) — {!events_executed} *)
  scheduled : int;  (** events ever queued (heap pushes) *)
  max_heap : int;  (** event-heap high-water mark *)
}

val perf : t -> perf

exception Process_failure of string * exn
(** Raised by {!run} when a spawned process raises: carries the process
    name and the original exception. *)

(** {1 Within a running process} *)

val self : unit -> t
(** The engine executing the current event.
    @raise Invalid_argument outside of a run. *)

val self_opt : unit -> t option
(** [self ()] without the exception — [None] outside of a run, so
    always-on instrumentation can degrade to a no-op. *)

(** {1 Extensions}

    The one way a library attaches state to the engine without the
    engine depending on it. A typed {!key} names a value; the engine
    carries values but never reads them.

    - {b Engine-owned} values ({!find} / {!set}) live as long as the
      engine: the fault plan, the happens-before checker's state.
    - {b Process-local} values ({!find_local} / {!set_local}) belong to
      the currently-dispatching process. They are preserved across
      {!sleep} / {!suspend} and inherited by the processes it
      {!spawn}s: a key made with [fork] gives the child [fork v],
      computed at [spawn] time, and any other key shares [v]. Callbacks
      registered with plain {!schedule} start with none. Trace contexts
      and the checker's vector clocks ride here.
    - {b Quiescence hooks} ({!at_quiescence}) run once each, in
      registration order, when {!run} drains its queue — never on an
      [until] cut. They run outside any process, so they must not block
      (the [seussdead] static pass enforces this).

    A lookup of a key with nothing installed allocates nothing; a hit
    allocates only its [Some]. With no process-local values, {!spawn}
    and dispatch allocate nothing for them. *)

type 'a key

val key : ?fork:('a -> 'a) -> unit -> 'a key
(** A fresh key, distinct from every other. [fork] matters only for
    process-local values. *)

val find : t -> 'a key -> 'a option

val set : t -> 'a key -> 'a option -> unit
(** Install ([Some v]) or remove ([None]) the engine's value for a key. *)

val find_local : t -> 'a key -> 'a option
(** The currently-dispatching process's value for a key. *)

val set_local : t -> 'a key -> 'a option -> unit
(** Install or remove the current process's value for a key, for the
    rest of its lifetime, including after suspensions. *)

val at_quiescence : t -> (unit -> unit) -> unit
(** Register a hook for natural quiescence. *)

val sleep : float -> unit
(** Suspend the current process for a simulated duration (>= 0). *)

val yield : unit -> unit
(** [yield ()] is [sleep 0.]: lets other events at this timestamp run. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the current process. [register resume] is
    called immediately with a one-shot [resume] function; calling
    [resume ()] re-schedules the process at the then-current time. This is
    the primitive from which all blocking structures are built. *)

(** {1 Deadlock sanitizer}

    The dynamic cross-check of the static [seussdead] pass. Blocking
    primitives bracket every park with {!wait_begin} / {!wait_end};
    the engine counts parked processes always (so {!stuck_waiters} is
    meaningful even with the detector off) and, when armed
    ([?deadlock] at {!create} or [SEUSS_DEADLOCK=1]), keeps a wait
    table that {!stranded_waiters} walks: a run that ends with parked
    non-daemon processes — or daemons on a wait cycle — leaked them,
    whether by lost wakeup (a forgotten [Ivar.fill]) or by genuine
    deadlock (a lock cycle). Each node reports them from an
    {!at_quiescence} hook. *)

val deadlock_armed : t -> bool

val stuck_waiters : t -> int
(** Non-daemon processes currently parked in a blocking primitive.
    After {!run} returns having drained its queue, a nonzero count
    means the simulation quiesced with live processes stranded — a
    silent-quiescence bug even when the detector is off. *)

type stranded = {
  resource : string;  (** e.g. ["semaphore#3"], ["ivar#12"] *)
  proc : string;  (** process name at {!spawn} *)
  pid : int;
  spawned_at : float;  (** simulated time the process started *)
  waiting_since : float;  (** simulated time it parked *)
  holders : int list;  (** pids holding the resource, when known *)
  in_cycle : bool;  (** sits on a wait-for cycle (true deadlock) *)
}

val stranded_waiters : t -> stranded list
(** The stranded-waiter report, sorted by park order: every parked
    non-daemon waiter plus every daemon on a wait-for cycle. [[]] when
    the detector is unarmed (use {!stuck_waiters} for the raw count). *)

val own_armed : t -> bool
(** Whether the ownership census is armed (see {!create}). *)

val current_pid : t -> int
(** Pid of the currently-dispatching process, [0] outside one. *)

val fresh_resource : t -> string -> string
(** [fresh_resource t kind] is a unique display name ["kind#N"] for a
    blocking resource, assigned on first wait so unarmed runs never
    pay for naming. *)

val wait_begin : t -> resource:(unit -> string) -> holders:(unit -> int list) -> int
(** Called by a blocking primitive as the current process parks.
    Returns the wait token to hand back to {!wait_end}. The [resource]
    and [holders] thunks are consulted only when the detector is
    armed; [holders] is re-read at quiescence so it should report the
    resource's *current* holder pids. *)

val wait_end : t -> int -> unit
(** Close a wait begun with {!wait_begin}. Runs in the resumer's
    context, so primitives must call it from the wakeup path they
    enqueue, not rely on the parked process itself. *)
