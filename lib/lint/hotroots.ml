(* The registered hot roots of the tree — the per-event and per-sample
   paths whose allocation behaviour sets the simulator's throughput
   floor. seussheat seeds its reachability worklist here; everything a
   root (transitively) references is hot and gets the allocation rules
   applied to its body.

   Roots are named (repo-relative file, top-level binding). The list is
   deliberately small and curated: a root should be something executed
   O(events) or O(samples) per run, not merely "fast-sounding". Adding a
   root is a review-visible act — append here with a why, and expect to
   spend time placing (* seussheat: cold — ... *) markers on the code it
   newly drags into the hot set. *)

type root = {
  hr_file : string;  (** repo-relative defining file *)
  hr_binding : string;  (** top-level binding name *)
  hr_why : string;  (** why this path is O(events) *)
}

let registry =
  [
    (* The engine dispatch loop and everything it runs per event. *)
    { hr_file = "lib/sim/engine.ml"; hr_binding = "run";
      hr_why = "the dispatch loop: pops, clock-advances and executes every \
                event in the run" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "schedule";
      hr_why = "every thunk enters the queue through here" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "push_resume";
      hr_why = "every suspension parks its continuation through here \
                (sleep and wait_begin both land on it)" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "sleep";
      hr_why = "per-sleep: the dominant primitive of every workload" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "wait_begin";
      hr_why = "per-acquire on the semaphore path" };
    { hr_file = "lib/sim/engine.ml"; hr_binding = "wait_end";
      hr_why = "per-release on the semaphore path" };
    (* Observability: every emitted event crosses these. *)
    { hr_file = "lib/obs/log.ml"; hr_binding = "emit";
      hr_why = "every observed event is stamped and stored into the \
                struct-of-arrays window here" };
    (* Metrics: incremented on event/sample cadence by the platform. *)
    { hr_file = "lib/obs/metrics.ml"; hr_binding = "inc";
      hr_why = "counter bump on event cadence" };
    { hr_file = "lib/obs/metrics.ml"; hr_binding = "observe";
      hr_why = "histogram observe on sample cadence" };
    { hr_file = "lib/obs/metrics.ml"; hr_binding = "set_gauge";
      hr_why = "gauge store on sample cadence" };
    (* The memory substrate: every warm deploy clones a root, every
       COW or zero-fill fault allocates a frame and writes an entry,
       and every retired UC releases its table. *)
    { hr_file = "lib/mem/page_table.ml"; hr_binding = "clone_shallow";
      hr_why = "per deploy and per snapshot capture: the root copy SEUSS \
                makes instead of booting" };
    { hr_file = "lib/mem/page_table.ml"; hr_binding = "set";
      hr_why = "per fault and per flag update: the entry write, with \
                leaf privatization on the first write through a shared \
                leaf" };
    { hr_file = "lib/mem/page_table.ml"; hr_binding = "release";
      hr_why = "per destroyed UC and evicted snapshot: returns leaves, \
                roots and frame references" };
    { hr_file = "lib/mem/frame.ml"; hr_binding = "alloc";
      hr_why = "per COW copy and zero fill" };
    { hr_file = "lib/mem/frame.ml"; hr_binding = "decref";
      hr_why = "per overwritten entry and per entry of every released \
                leaf" };
    { hr_file = "lib/mem/addr_space.ml"; hr_binding = "touch_write";
      hr_why = "the guest write fault handler: per written page" };
    (* The snapshot store: every cold invocation inserts its capture. *)
    { hr_file = "lib/seuss/snapstore.ml"; hr_binding = "insert";
      hr_why = "per cold invocation, per delta page: keys, dedups and \
                indexes the capture, then evicts to the budget" };
    (* Trace-context propagation: per spawned/forked unit of work. *)
    { hr_file = "lib/sim/trace.ml"; hr_binding = "fork";
      hr_why = "span-context fork on every spawn" };
  ]

let mem ~file ~binding =
  List.exists
    (fun r -> String.equal r.hr_file file && String.equal r.hr_binding binding)
    registry

let why ~file ~binding =
  List.find_map
    (fun r ->
      if String.equal r.hr_file file && String.equal r.hr_binding binding then
        Some r.hr_why
      else None)
    registry
