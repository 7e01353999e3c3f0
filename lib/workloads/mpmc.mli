(** server-mpmc: an MPMC request-dispatch queue under bursty traffic.

    [max 1 (threads/4)] producers replay a deterministic {!Traffic}
    arrival trace into a shared Michael-Scott queue; the remaining
    cores are workers that dequeue, claim each request exactly once,
    and serve it with key-dependent register work.  The hot fences are
    the publish and dispatch paths inside {!Msn_class}, scoped per
    [scope]. *)

val make :
  ?threads:int ->
  ?per_producer:int ->
  ?seed:int ->
  ?mean_burst:int ->
  ?mean_gap:int ->
  ?key_skew:int ->
  ?mode:Traffic.mode ->
  ?window:int ->
  ?service:int ->
  scope:[ `Class | `Set ] ->
  unit ->
  Workload.t
(** Defaults: 8 threads (2 producers, 6 workers), 16 requests per
    producer, seed 1, mean burst 4, mean gap 300, key skew 1, open
    loop.  [window] bounds in-flight requests in closed-loop mode;
    [service] scales the per-request work ((key mod 4 + 1) * service
    delay iterations).  Validation checks exactly-once service of
    every request, an empty queue, and full injected/retired counts —
    all schedule-independent. *)

val requests : ?threads:int -> ?per_producer:int -> unit -> int
(** Total requests the corresponding [make] will inject — used by the
    server experiment to report requests per kilocycle. *)

val latency_markers :
  requests:int ->
  threads:int ->
  Fscope_isa.Program.t ->
  (int -> int -> int option) * (int -> int -> int option)
(** [(inject_slot, retire_slot)] marker classifiers: each maps a
    drained store's [(addr, value)] to the request slot it marks, or
    [None].  The building blocks of {!keep_latency} and
    {!latency_of_events}, also reused by {!Gauges} to derive queue
    depth from the same drains. *)

val keep_latency :
  requests:int -> threads:int -> Fscope_isa.Program.t -> addr:int -> value:int -> bool
(** Trace drain predicate accepting exactly the store-buffer drains
    that mark a request's injection (the enqueue's [qval] node store)
    or retirement (a worker's [claims] increment).  Pass as
    {!Fscope_obs.Trace.create}'s [drains] so a long run keeps every
    marker in a small ring and records no other event. *)

val latency_of_events :
  requests:int ->
  threads:int ->
  windows:(int * int) list ->
  Fscope_isa.Program.t ->
  ((Fscope_obs.Event.timed -> unit) -> unit) ->
  int list
(** Per-request inject-to-retire latencies (simulated cycles),
    ascending, from the events the iterator (such as
    [Trace.iter_events trace]) visits.  A request appears once both
    its markers were retained and both fall inside ONE of the
    inclusive [windows].  An exact run passes the whole run,
    [[(0, cycles)]]: with an undropped trace filtered by {!keep_latency}
    every request then appears.  A sampled run passes its measured
    detailed ranges ([Machine.result.sample_windows]): a pair spanning
    a functional fast-forward gap would count unsimulated cycles, so it
    is dropped rather than estimated. *)
