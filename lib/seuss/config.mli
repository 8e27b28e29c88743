(** SEUSS node configuration. *)

type ao_level =
  | Ao_none  (** capture the base snapshot right at driver start *)
  | Ao_network  (** prime the TCP buffer pool and send path first *)
  | Ao_full  (** network priming plus a dummy compile + run (§7) *)

(** Victim-selection policy of the byte-budgeted snapshot store. *)
type snap_policy =
  | Snap_lru  (** least-recently-used function snapshot first *)
  | Snap_ws
      (** working-set-informed: snapshots with no recorded working set
          go first (nothing proves they are worth keeping warm), then
          lowest working-set-to-delta ratio — the snapshots whose
          resident pages buy the fewest prefaultable pages *)

type t = {
  cores : int;  (** compute-node VCPUs; the paper's VM has 16 *)
  ao : ao_level;
  cache_function_snapshots : bool;
      (** snapshot stacks on/off — ablation: off makes every miss a full
          cold path against the base snapshot *)
  cache_idle_ucs : bool;  (** hot-path cache on/off *)
  oom_headroom_bytes : int64;
      (** reclaim idle UCs when free memory drops below this floor (§6:
          "a pre-defined threshold") *)
  invoke_timeout : float;  (** seconds before an invocation errors out *)
  prefault_working_set : bool;
      (** REAP-style warm deploys: record the vpns demand-faulted by the
          first invocation from each function snapshot and batch-install
          them on every later deploy, replacing the demand-fault storm
          with one [Cost.prefault_time] pass. Off by default — the off
          path is bit-identical to a build without the feature. *)
  snapshot_cache_bytes : int64;
      (** byte budget of the content-addressed snapshot store. [0L]
          (default) disarms the store entirely: function snapshots are
          kept as plain stacks exactly as before the store existed — the
          off path is bit-identical to a build without the feature. A
          positive budget routes function snapshots through
          [Snapstore]: page-level dedup, delta accounting, and
          [snapshot_cache_policy]-driven eviction when residency would
          exceed the budget (evicted functions fall back to cold
          boot). *)
  snapshot_cache_policy : snap_policy;
      (** victim selection when the store exceeds its byte budget;
          ignored while [snapshot_cache_bytes = 0L] *)
  runtimes : Unikernel.Image.t list;  (** images to boot at node start *)
}

val default : t
(** 16 cores, full AO, both caches on, 1 GiB OOM headroom, 60 s timeout,
    Node.js runtime. *)

val ao_name : ao_level -> string

val policy_name : snap_policy -> string
(** ["lru"] / ["ws"] — the spelling used in events, metrics and the
    [SEUSS_SNAP_POLICY] env hook. *)

val policy_of_name : string -> snap_policy option
