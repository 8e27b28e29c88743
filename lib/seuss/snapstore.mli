(** Content-addressed function-snapshot store: page dedup, delta
    accounting, and byte-budgeted eviction.

    Armed by {!Config.t.snapshot_cache_bytes} > 0. The store owns the
    node's function snapshots as {e members}: at insert it walks the
    snapshot's delta layer (the pages it maps through different frames
    than its parent — {!Mem.Page_table.fold_delta}), derives each page's
    content identity, and rewrites delta entries whose content is
    already indexed to share the canonical frame — so identical pages
    captured by {e different} function snapshots collapse to one frame,
    beyond the structural parent-sharing snapshots already have.

    Frames are metadata-only, so content identity is synthesized from
    the deterministic guest memory layout: every page outside the
    compiled-bytecode tail of the heap keys on (runtime, vpn) — all
    compile-ok captures of a runtime write the same content there — and
    the bytecode tail is salted by the program source. Canonical frames
    are stamped with their content hash via {!Mem.Frame.set_tag}, giving
    {!check} a liveness/identity cross-check that survives frame-id
    recycling (tags clear on free).

    Residency is [page_size * distinct content pages + per-member
    page-table structure]; when it exceeds the budget, unpinned members
    (snapshot dependents = 0) are evicted under the configured
    {!Config.snap_policy} until it fits, each eviction emitting
    {!Obs.Event.Snap_evict} and falling the function back to the cold
    path. All ordering is deterministic: a logical insert/lookup tick,
    [Det]-ordered victim scans, no wallclock, no PRNG draws. *)

type t

val create :
  env:Osenv.t ->
  budget_bytes:int64 ->
  policy:Config.snap_policy ->
  on_evict:(fn_id:string -> unit) ->
  t
(** [on_evict] fires (before the snapshot is deleted) for every member
    the budget sweep removes, so the owner can drop its own handle —
    the node unhooks the function from its snapshot table. *)

val insert : t -> fn_id:string -> Snapshot.t -> unit
(** Adopt a freshly captured function snapshot: hash and dedup its
    delta pages (rewriting matches to canonical frames), account its
    residency, emit [Snap_delta] + [Snap_dedup], then enforce the
    budget. Charges {!Cost.snap_index_time} of core time — must run
    inside a simulation process.
    @raise Invalid_argument if [fn_id] is already a member. *)

val lookup : t -> string -> Snapshot.t option
(** The member snapshot for a function, counting a hit or miss and
    touching recency. Inspection that must not disturb the policy state
    should go through {!members} instead. *)

val drain : t -> unit
(** Teardown sweep ([Det]-ordered): try to delete every member's
    snapshot and unlink all membership and index state regardless, so
    the store ends empty. Pinned snapshots survive deletion (their
    owner is expected to be tearing them down too). *)

val members : t -> (string * Snapshot.t) list
(** Current members, sorted by fn_id. Does not touch recency. *)

val member_count : t -> int

val index_pages : t -> int
(** Distinct content pages currently indexed. *)

val resident_bytes : t -> int64

val peak_resident_bytes : t -> int64

val budget_bytes : t -> int64

val policy : t -> Config.snap_policy

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val pages_inserted : t -> int
(** Cumulative delta pages across all inserts. *)

val pages_unique : t -> int
(** Cumulative pages that were first-of-their-content at insert. *)

val dedup_ratio : t -> float
(** [pages_inserted / pages_unique] — 1.0 means no sharing was found;
    the paper-shaped workload (many functions on one runtime) pushes
    this far above 1. *)

val check : t -> string list
(** Self-validation for the property battery: every index entry names a
    live frame tagged with its hash and its holder count equals the
    members' references to it; residency accounting recomputes exactly;
    the budget holds unless every member is pinned. Returns violations
    ([[]] = consistent). *)
