(** The trace collector handed to a machine run.

    A trace is either live (created with {!create}) or the shared
    disabled collector {!null}.  Emission sites are expected to guard
    with {!on} before building an event, so a run without tracing pays
    one boolean load per potential event and allocates nothing —
    observability is strictly timing- and result-neutral either way,
    because emission never feeds back into simulation state.

    Events land in per-core rings (see {!Ring}) that store them
    unboxed, so recording one on a live trace allocates nothing either
    (beyond a ring's doubling while it grows to its capacity);
    {!events} builds the {!Event.timed} list once, when the run is
    read.  The collector also owns the run's {!Metrics} registry and
    the current cycle ([now]), which the machine advances once per
    simulated cycle so emission sites don't need a cycle parameter
    threaded through. *)

type t

val create : ?ring_capacity:int -> ?keep:(Event.t -> bool) -> cores:int -> unit -> t
(** A live collector with one ring per core.  [ring_capacity] is per
    core and defaults to 65536 events.  [keep] filters events at the
    emission site (default: keep everything); a selective filter lets a
    long run retain one sparse event family without the ring cycling
    it out. *)

val null : t
(** The disabled collector: [on null = false]; [emit]/[set_now] on it
    are no-ops.  Safe to share — it holds no per-run state. *)

val on : t -> bool

val set_now : t -> int -> unit
(** Advance the trace clock; called by the machine at the top of every
    simulated cycle.  The clock must never go back: {!events} merges
    the per-core streams assuming each is in cycle order. *)

val now : t -> int
val cores : t -> int

val emit : t -> core:int -> Event.t -> unit
(** Record an event at the current cycle, if [keep] accepts it.  No-op
    when disabled; raises [Invalid_argument] if [core] is out of range
    on a live trace.  Allocates only when the core's ring doubles. *)

val metrics : t -> Metrics.t

val events : t -> Event.timed list
(** All retained events merged across cores, sorted by cycle, then
    core, then per-core emission order (deterministic). *)

val dropped : t -> int
(** Total ring-buffer overwrites across cores. *)
