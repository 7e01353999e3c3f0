type t = {
  live : bool;
  mutable current : int;
  rings : Ring.t array;
  registry : Metrics.t;
  keep : Event.t -> bool;
}

let default_ring_capacity = 65536
let keep_all (_ : Event.t) = true

let create ?(ring_capacity = default_ring_capacity) ?(keep = keep_all) ~cores () =
  if cores <= 0 then invalid_arg "Trace.create: need at least one core";
  {
    live = true;
    current = 0;
    rings = Array.init cores (fun _ -> Ring.create ~capacity:ring_capacity);
    registry = Metrics.create ();
    keep;
  }

let null =
  { live = false; current = 0; rings = [||]; registry = Metrics.create (); keep = keep_all }

let on t = t.live
let set_now t n = if t.live then t.current <- n
let now t = t.current
let cores t = Array.length t.rings
let metrics t = t.registry

let emit t ~core ev =
  if t.live then begin
    if core < 0 || core >= Array.length t.rings then
      invalid_arg "Trace.emit: core out of range";
    if t.keep ev then Ring.push t.rings.(core) ~cycle:t.current ev
  end

let events t = Ring.merge t.rings

let dropped t = Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings
