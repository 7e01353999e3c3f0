type t = {
  cycles : int;
  timed_out : bool;
  cores : int;
  events : Event.timed list;
  dropped : int;
  metrics : Metrics.t;
}

let of_trace ~cycles ~timed_out trace =
  {
    cycles;
    timed_out;
    cores = Trace.cores trace;
    events = Trace.events trace;
    dropped = Trace.dropped trace;
    metrics = Trace.metrics trace;
  }

let events_count t = List.length t.events

let counter t name =
  match Metrics.find_counter t.metrics name with Some v -> v | None -> 0
