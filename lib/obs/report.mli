(** The observability result of one machine run: a view of its trace.

    Built by the machine after the cycle loop from the live trace: the
    trace itself, whose rings hold the retained events, the metrics
    registry (already including the snapshot of every legacy per-core
    / cache stat — see {!Metrics}) and the run's shape.  This is what
    [Machine.result.obs] carries and what every {!Sink} renders.

    Building a report decodes and copies nothing: events are decoded
    when a consumer reads them through [Trace.iter_events], and
    counting them reads only the rings' lengths and tags.  The report
    is therefore not a snapshot.  It reads the trace it was built from
    whenever it is rendered, except [dropped], which is the count at
    the time it was built; the machine emits nothing into the trace
    after building the report, and no other caller may either, or the
    report's events would disagree with its [dropped]. *)

type t = {
  cycles : int;
  timed_out : bool;
  cores : int;
  trace : Trace.t;  (** the run's collector, whose rings hold its events *)
  dropped : int;  (** events lost to ring-buffer overwrites *)
  metrics : Metrics.t;
}

val of_trace : cycles:int -> timed_out:bool -> Trace.t -> t

val events_count : t -> int
(** Retained events, summed over the rings' lengths. *)

val counter : t -> string -> int
(** Registry counter by name, 0 if absent — convenience for sinks and
    tests reading the snapshot namespace. *)
