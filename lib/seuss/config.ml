type ao_level = Ao_none | Ao_network | Ao_full

type snap_policy = Snap_lru | Snap_ws

type t = {
  cores : int;
  ao : ao_level;
  cache_function_snapshots : bool;
  cache_idle_ucs : bool;
  oom_headroom_bytes : int64;
  invoke_timeout : float;
  prefault_working_set : bool;
  snapshot_cache_bytes : int64;
  snapshot_cache_policy : snap_policy;
  runtimes : Unikernel.Image.t list;
}

let default =
  {
    cores = 16;
    ao = Ao_full;
    cache_function_snapshots = true;
    cache_idle_ucs = true;
    oom_headroom_bytes = Int64.of_int (Mem.Mconfig.mib 1024);
    invoke_timeout = 60.0;
    prefault_working_set = false;
    snapshot_cache_bytes = 0L;
    snapshot_cache_policy = Snap_lru;
    runtimes = [ Unikernel.Image.node ];
  }

let ao_name = function
  | Ao_none -> "none"
  | Ao_network -> "network"
  | Ao_full -> "network+interpreter"

let policy_name = function Snap_lru -> "lru" | Snap_ws -> "ws"

let policy_of_name = function
  | "lru" -> Some Snap_lru
  | "ws" -> Some Snap_ws
  | _ -> None
