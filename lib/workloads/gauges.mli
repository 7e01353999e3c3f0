(** Live server-suite gauges recovered from the traced store-buffer
    drain stream.

    Each server workload exposes a data-structure occupancy signal in
    the [Sb_drain] markers the latency extraction already relies on: a
    store into a known symbol region with a value only one protocol
    step can produce.  A sampler pairs a trace drain predicate
    (accept exactly the marker drains, so the trace records nothing
    else) with a post-hoc fold that replays the retained events — in
    the trace's deterministic cycle/core/emission order — maintaining
    the implied occupancy and observing every transition into
    log2-bucket histograms in a metrics registry:

    - [server-mpmc]: queue depth under ["gauge/server-mpmc/queue_depth"];
    - [server-steal]: deque occupancy under
      ["gauge/server-steal/deque_occupancy"] (all deques) and [".../w<w>"];
    - [server-cache]: EBR limbo-ring length under
      ["gauge/server-cache/limbo_len"] (all threads) and [".../t<t>"].

    Because sampling is a replay of the trace rather than live
    instrumentation, the histograms are bit-identical across [--jobs],
    like every other row metric. *)

type t = {
  label : string;
      (** short metric label for table rows, e.g. ["queue_depth"] *)
  hist : string;
      (** registry name of the aggregate histogram the fold fills *)
  drains : addr:int -> value:int -> bool;
      (** trace drain predicate accepting exactly the marker drains
          (the [drains] of {!Fscope_obs.Trace.create}) *)
  fold :
    Fscope_obs.Metrics.t -> ((Fscope_obs.Event.timed -> unit) -> unit) -> unit;
      (** replay retained events, given as an iterator such as
          [Trace.iter_events trace], into gauge histograms *)
}

val for_workload : name:string -> Fscope_isa.Program.t -> t option
(** The sampler for a server workload's program image, or [None] when
    the workload has no gauge. *)
