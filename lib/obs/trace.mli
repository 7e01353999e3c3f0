(** The trace collector handed to a machine run.

    A trace is either live (created with {!create} or {!metrics_only})
    or the shared disabled collector {!null}.  Emission sites guard
    with {!records} before computing an event's fields, so a run
    without tracing, or with a metrics-only trace, pays one load per
    potential event and allocates nothing — observability is strictly
    timing- and result-neutral either way, because emission never
    feeds back into simulation state.

    Emission sites call the typed emitters ({!rob_dispatch},
    {!sb_drain}, ...), one per {!Event.t} constructor.  A live trace
    records all events, nothing ({!metrics_only}), or only the
    store-buffer drains a [drains] predicate accepts.  The emitters
    write an event's four words straight into the core's ring (see
    {!Ring}) and allocate nothing (beyond a ring's chunk, the first
    time the ring reaches it); on a drain-filtered trace every emitter
    but {!sb_drain} returns at once.  No emitter builds an {!Event.t}:
    events are decoded only when something reads them
    ({!iter_events}).

    The collector also owns the run's {!Metrics} registry and the
    current cycle, which the machine advances once per
    simulated cycle so emission sites don't need a cycle parameter
    threaded through. *)

type t

val create :
  ?ring_capacity:int -> ?drains:(addr:int -> value:int -> bool) -> cores:int -> unit -> t
(** A live collector with one ring per core.  [ring_capacity] is per
    core and defaults to 65536 events; raises [Invalid_argument] if it
    is not positive or [cores <= 0].  Without [drains] the trace
    records every event; with it, only the [Sb_drain { addr; value }]
    events it accepts, so a long run can retain a sparse family of
    drain markers without the ring cycling them out. *)

val metrics_only : cores:int -> unit -> t
(** A live collector that records no events: [on] is true, so the
    machine fills its metrics registry and runs under the traced
    engine rules exactly as under {!create}, but every emitter returns
    at once and the rings are empty.  For consumers that read only the
    metrics, such as profiles. *)

val null : t
(** The disabled collector: [on null = false]; emitting into it and
    [set_now] on it are no-ops.  Safe to share — it holds no per-run
    state. *)

val on : t -> bool

val records : t -> bool
(** Whether the trace keeps events: true for {!create}, false for
    {!metrics_only} and {!null}.  Emission sites guard the typed
    emitters with it, and their metric updates with {!on}, so a
    metrics-only trace pays no call per event. *)

val set_now : t -> int -> unit
(** Advance the trace clock; called by the machine at the top of every
    simulated cycle.  The clock must never go back: {!iter_events}
    merges the per-core streams assuming each is in cycle order. *)

val cores : t -> int

(** {2 Typed emitters}

    Each records its constructor's event at the current cycle on
    [core], if the trace records it.  A no-op on {!null} and
    {!metrics_only}; [core] must be in range on a recording trace. *)

val fence_stall_begin : t -> core:int -> pc:int -> global:bool -> unit
val fence_stall_end : t -> core:int -> pc:int -> cycles:int -> unit
val rob_dispatch : t -> core:int -> pc:int -> cls:Event.instr_class -> unit
val rob_commit : t -> core:int -> pc:int -> cls:Event.instr_class -> unit
val sb_insert : t -> core:int -> addr:int -> unit
val sb_drain : t -> core:int -> addr:int -> value:int -> unit

val scope_push : t -> core:int -> column:int -> unit
(** [Scope_push { column = Some column }], or [{ column = None }] when
    [column < 0]. *)

val scope_pop : t -> core:int -> unit
val mem_access : t -> core:int -> addr:int -> write:bool -> outcome:Event.mem_outcome -> unit
val cas_result : t -> core:int -> addr:int -> success:bool -> unit

(** {2 Reading} *)

val metrics : t -> Metrics.t

val iter_events : t -> (Event.timed -> unit) -> unit
(** Decode the retained events one at a time, merged across cores in
    cycle, then core, then per-core emission order (deterministic). *)

val length : t -> int
(** Retained events across cores, without decoding them. *)

val dropped : t -> int
(** Total ring-buffer overwrites across cores. *)

val scope_counts : t -> int * int
(** Retained [Scope_push] and [Scope_pop] events across cores, counted
    without decoding. *)
