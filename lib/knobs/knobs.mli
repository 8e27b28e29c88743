(** The environment boundary: the one module that reads [SEUSS_*]
    variables. Everything below it (the engine's defaults aside) takes
    explicit arguments; the harness and [seussctl] pass these values
    down.

    Every variable shares one grammar:
    - unset and [""] mean the same thing (callers cannot delete a
      variable, only blank it);
    - values are trimmed;
    - flags accept [1]/[true]/[yes]/[on] and [0]/[false]/[no]/[off],
      case-insensitive;
    - a malformed value prints one line,
      [warning: ignoring malformed SEUSS_X="..."], on stderr and reads as
      unset. No accessor raises.

    Each accessor reads the environment afresh, so a process (or a test)
    that changes a variable sees the new value on the next call. *)

(** {1 Sanitizers} *)

val shuffle_seed : unit -> int64 option
(** [SEUSS_SHUFFLE_SEED]: seed of the engine's same-timestamp tie
    shuffler. *)

val deadlock : unit -> bool
(** [SEUSS_DEADLOCK]: arm the engine's wait-for-graph detector. *)

val own : unit -> bool
(** [SEUSS_OWN]: arm the engine's ownership census. *)

val hb : unit -> bool
(** [SEUSS_HB]: arm the happens-before checker on harness engines. *)

(** {1 Fault plane} *)

val fault_rate : unit -> float option
(** [SEUSS_FAULT_RATE]: one injection rate for every fault site, in
    [\[0, 1\]]. *)

val fault_seed : unit -> int64 option
(** [SEUSS_FAULT_SEED]: the fault plan's seed, overriding the one
    derived from the run seed. *)

(** {1 Node configuration} *)

val prefault : unit -> bool option
(** [SEUSS_PREFAULT]: force working-set prefault on or off. *)

val snap_cache : unit -> int64 option
(** [SEUSS_SNAP_CACHE]: byte budget of the snapshot store, in the
    {!parse_bytes} syntax. *)

val snap_policy : unit -> [ `Lru | `Ws ] option
(** [SEUSS_SNAP_POLICY]: [lru] or [ws], case-insensitive. *)

(** {1 Samplers} *)

val timeline : unit -> bool
(** [SEUSS_TIMELINE]: attach the resource timeline sampler. *)

val trace_sample : unit -> int option
(** [SEUSS_TRACE_SAMPLE]: capture every [n]-th invocation's span tree.
    Accepts [N] or [1/N], [N] decimal and at least 1. *)

(** {1 Test seeds} *)

val prop_seed : unit -> int64 option
(** [SEUSS_PROP_SEED]: base seed of the property batteries. *)

val load_prop_seed : unit -> int64 option
(** [SEUSS_LOAD_PROP_SEED]: base seed of the workload battery. *)

(** {1 Byte sizes} *)

val parse_bytes : string -> int64 option
(** A non-negative byte count: plain bytes or a binary [k]/[m]/[g]
    suffix (case-insensitive), e.g. ["64m"]. [None] on malformed input
    or when the count overflows [int64]; prints nothing (callers own
    their diagnostics). *)
