type t = {
  cycles : int;
  timed_out : bool;
  cores : int;
  trace : Trace.t;
  dropped : int;
  metrics : Metrics.t;
}

let of_trace ~cycles ~timed_out trace =
  {
    cycles;
    timed_out;
    cores = Trace.cores trace;
    trace;
    dropped = Trace.dropped trace;
    metrics = Trace.metrics trace;
  }

let events_count t = Trace.length t.trace

let counter t name =
  match Metrics.find_counter t.metrics name with Some v -> v | None -> 0
