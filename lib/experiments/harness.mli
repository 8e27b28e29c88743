(** Common experiment plumbing: build a simulated compute node (SEUSS or
    Linux), the external IO endpoint, and the platform stack around it,
    then run a body inside the simulation. One fresh deployment per
    trial, like the paper. *)

val engine : seed:int64 -> Sim.Engine.t
(** A fresh engine with the environment's sanitizers armed:
    {!Sim.Engine.create} reads the tie shuffler, deadlock detector and
    ownership census from {!Knobs}, and this adds the happens-before
    checker ({!Sim.Hb}) when {!Knobs.hb} ([SEUSS_HB]) is on. For
    commands that drive their own engine. *)

val run_sim : ?seed:int64 -> (Sim.Engine.t -> 'a) -> 'a
(** Spawn the body as a simulation process on {!engine} and drive it
    until it completes. When {!Knobs.fault_rate} ([SEUSS_FAULT_RATE]) is
    set, a fault plan with every site at that rate is installed first,
    seeded by [seed xor fault_seed_xor] (or {!Knobs.fault_seed},
    [SEUSS_FAULT_SEED]): the derivation never draws from the engine
    stream, so a rate of 0 leaves every experiment output bit-identical
    to an unfaulted run. After the run the engine's stuck-waiter count
    and stranded report are recorded and readable via
    {!last_stuck_waiters} / {!last_stranded_waiters}. *)

val last_stuck_waiters : unit -> int
(** {!Sim.Engine.stuck_waiters} of the most recent {!run_sim} engine at
    quiescence: non-daemon processes that were still parked when the
    event queue drained. Meaningful even with the detector off; [0]
    for a clean experiment. *)

val last_leaked_resources : unit -> (string * Seuss.Node.census) list
(** Per-node nonzero censuses of the most recent {!run_sim}, in node
    creation order. When [SEUSS_OWN] arms the census, every
    {!seuss_node} registers one that runs at engine quiescence; a
    leak surfaces as a [San_leak] event and here. Always [[]] unarmed
    — and, on a leak-free tree, also [[]] armed. *)

val last_stranded_waiters : unit -> Sim.Engine.stranded list
(** {!Sim.Engine.stranded_waiters} of the most recent {!run_sim} run —
    [[]] unless [SEUSS_DEADLOCK] armed the detector. *)

val fault_seed_xor : int64
(** The fixed constant mixed into the run seed to derive a fault-plan
    seed ([0x5EEDFA17]); shared by {!run_sim} and [fig_chaos] so one
    run seed fully determines the failure sequence. *)

val make_seuss_env :
  ?budget_bytes:int64 -> ?io_delay:float -> Sim.Engine.t -> Seuss.Osenv.t
(** An 88 GB/16-core environment with the external blocking HTTP
    endpoint registered as ["http://io-server"]. *)

val seuss_node :
  ?config:Seuss.Config.t -> Seuss.Osenv.t -> Seuss.Node.t
(** Create and start a SEUSS node (blocking: boots the runtime). The
    environment overrides the config's prefault flag
    ({!Knobs.prefault}) and snapshot store ({!Knobs.snap_cache},
    {!Knobs.snap_policy}), arms trace sampling ({!Knobs.trace_sample}),
    the timeline sampler ({!Knobs.timeline}) and, under [SEUSS_OWN], the
    node's census. Experiments needing fixed arms (e.g. [Fig_reap]) build
    their nodes directly. *)

val seuss_controller :
  ?config:Seuss.Config.t -> Seuss.Osenv.t -> Platform.Controller.t * Seuss.Node.t
(** Node + shim + OpenWhisk controller. *)

val linux_controller :
  ?config:Baselines.Linux_node.config ->
  Seuss.Osenv.t ->
  Platform.Controller.t * Baselines.Linux_node.t

val pool_controller :
  ?config:Baselines.Pool_node.config ->
  kind:Baselines.Pool_node.kind ->
  Seuss.Osenv.t ->
  Platform.Controller.t * Baselines.Pool_node.t
(** Warm-instance-cache node over the Firecracker or Process backend
    behind the same OpenWhisk control plane — the microVM and process
    arms of the load experiments. *)

val default_budget : int64
(** 88 GiB — the paper's compute node VM. *)
