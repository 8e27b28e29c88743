let default_budget = Mem.Mconfig.default_budget_bytes

(* The fault-plan seed is derived from the run seed by a fixed xor
   (never split off the engine stream), so arming SEUSS_FAULT_RATE at
   rate 0 makes zero extra PRNG draws and leaves every experiment
   output bit-identical — the CI identity check depends on this. *)
let fault_seed_xor = 0x5EEDFA17L

(* SEUSS_HB arms the happens-before checker before anything spawns, so
   spawn edges are tracked from the root process down. The other
   sanitizers (SEUSS_SHUFFLE_SEED, SEUSS_DEADLOCK, SEUSS_OWN) are armed
   by Engine.create itself. *)
let engine ~seed =
  let engine = Sim.Engine.create ~seed () in
  if Knobs.hb () then ignore (Sim.Hb.enable engine);
  engine

(* Recorded after every run_sim — before the completion check, so a
   stuck experiment still leaves its post-mortem behind. *)
let last_stuck = ref 0
let last_stranded : Sim.Engine.stranded list ref = ref []
let last_stuck_waiters () = !last_stuck
let last_stranded_waiters () = !last_stranded

(* A healthy census-armed run emits nothing, so it stays byte-identical
   to an unarmed one — the CI transparency check depends on this. *)
let last_leaked : (string * Seuss.Node.census) list ref = ref []
let last_leaked_resources () = List.rev !last_leaked

(* Distinguish the nodes of one process in census reports; leaks are
   exceptional, so the numbering never reaches healthy output. *)
let node_seq = ref 0

let run_sim ?(seed = 7L) body =
  let engine = engine ~seed in
  Option.iter
    (fun rate ->
      let seed =
        Option.value (Knobs.fault_seed ())
          ~default:(Int64.logxor seed fault_seed_xor)
      in
      let rates = List.map (fun site -> (site, rate)) Faults.Fault.all_sites in
      Faults.Fault.install (Faults.Fault.make ~seed ~rates engine))
    (Knobs.fault_rate ());
  last_leaked := [];
  let result = ref None in
  Sim.Engine.spawn engine ~name:"experiment" (fun () ->
      result := Some (body engine));
  Sim.Engine.run engine;
  last_stuck := Sim.Engine.stuck_waiters engine;
  last_stranded := Sim.Engine.stranded_waiters engine;
  match !result with
  | Some v -> v
  | None -> failwith "experiment did not complete"

let make_seuss_env ?(budget_bytes = default_budget) ?(io_delay = 0.25) engine =
  let env = Seuss.Osenv.create ~budget_bytes engine in
  let io_listener = Net.Tcp.listener ~port:80 in
  Net.Http.serve ~listener:io_listener (fun _ ->
      Sim.Engine.sleep io_delay;
      Net.Http.ok "OK");
  Seuss.Osenv.register_host env "http://io-server" io_listener;
  env

(* SEUSS_PREFAULT=0 and SEUSS_SNAP_CACHE=0 set their fields to the
   defaults, so such runs are bit-identical to unset ones — the CI
   transparency checks depend on this. *)
let seuss_node ?(config = Seuss.Config.default) env =
  let config =
    {
      config with
      Seuss.Config.prefault_working_set =
        Option.value (Knobs.prefault ())
          ~default:config.Seuss.Config.prefault_working_set;
      snapshot_cache_bytes =
        Option.value (Knobs.snap_cache ())
          ~default:config.Seuss.Config.snapshot_cache_bytes;
      snapshot_cache_policy =
        (match Knobs.snap_policy () with
        | Some `Lru -> Seuss.Config.Snap_lru
        | Some `Ws -> Seuss.Config.Snap_ws
        | None -> config.Seuss.Config.snapshot_cache_policy);
    }
  in
  let node =
    Seuss.Node.create ~config ?trace_sample:(Knobs.trace_sample ()) env
  in
  if Knobs.timeline () then Seuss.Timeline.start node;
  let name = Printf.sprintf "node%d" !node_seq in
  incr node_seq;
  Seuss.Node.arm_census ~name
    ~on_leak:(fun c -> last_leaked := (name, c) :: !last_leaked)
    node;
  Seuss.Node.start node;
  node

let seuss_controller ?config env =
  let node = seuss_node ?config env in
  let shim = Seuss.Shim.create env node in
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Seuss_backend shim),
   node)

let linux_controller ?config env =
  let node = Baselines.Linux_node.create ?config env in
  Baselines.Linux_node.start node;
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Linux_backend node),
   node)

let pool_controller ?config ~kind env =
  let node = Baselines.Pool_node.create ?config ~kind env in
  (Platform.Controller.create env.Seuss.Osenv.engine
     (Platform.Controller.Pool_backend node),
   node)
