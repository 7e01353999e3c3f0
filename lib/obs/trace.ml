(* What a live trace keeps of the events emitted into it. *)
type recording =
  | All
  | Nothing
  | Drains of (addr:int -> value:int -> bool)

type t = {
  live : bool;
  mutable current : int;
  cores : int;
  rings : Ring.t array;  (* [||] unless recording *)
  registry : Metrics.t;
  recording : recording;
}

let default_ring_capacity = 65536

let live ~cores rings recording =
  { live = true; current = 0; cores; rings; registry = Metrics.create (); recording }

let check_cores cores = if cores <= 0 then invalid_arg "Trace.create: need at least one core"

let create ?(ring_capacity = default_ring_capacity) ?drains ~cores () =
  check_cores cores;
  live ~cores
    (Array.init cores (fun _ -> Ring.create ~capacity:ring_capacity))
    (match drains with None -> All | Some d -> Drains d)

let metrics_only ~cores () =
  check_cores cores;
  live ~cores [||] Nothing

let null =
  {
    live = false;
    current = 0;
    cores = 0;
    rings = [||];
    registry = Metrics.create ();
    recording = Nothing;
  }

let on t = t.live
let records t = match t.recording with Nothing -> false | All | Drains _ -> true
let set_now t n = if t.live then t.current <- n
let cores t = t.cores
let metrics t = t.registry

(* The typed emitters hand the payload straight to the ring's writer.
   A drain-filtered trace records nothing but the drains its predicate
   accepts, so every other emitter returns at once on it. *)

let ring t ~core = t.rings.(core)

let fence_stall_begin t ~core ~pc ~global =
  match t.recording with
  | All -> Ring.fence_stall_begin (ring t ~core) ~cycle:t.current ~pc ~global
  | Nothing | Drains _ -> ()

let fence_stall_end t ~core ~pc ~cycles =
  match t.recording with
  | All -> Ring.fence_stall_end (ring t ~core) ~cycle:t.current ~pc ~cycles
  | Nothing | Drains _ -> ()

let rob_dispatch t ~core ~pc ~cls =
  match t.recording with
  | All -> Ring.rob_dispatch (ring t ~core) ~cycle:t.current ~pc ~cls
  | Nothing | Drains _ -> ()

let rob_commit t ~core ~pc ~cls =
  match t.recording with
  | All -> Ring.rob_commit (ring t ~core) ~cycle:t.current ~pc ~cls
  | Nothing | Drains _ -> ()

let sb_insert t ~core ~addr =
  match t.recording with
  | All -> Ring.sb_insert (ring t ~core) ~cycle:t.current ~addr
  | Nothing | Drains _ -> ()

let sb_drain t ~core ~addr ~value =
  match t.recording with
  | All -> Ring.sb_drain (ring t ~core) ~cycle:t.current ~addr ~value
  | Drains keep ->
    if keep ~addr ~value then Ring.sb_drain (ring t ~core) ~cycle:t.current ~addr ~value
  | Nothing -> ()

let scope_push t ~core ~column =
  match t.recording with
  | All ->
    if column >= 0 then Ring.scope_push (ring t ~core) ~cycle:t.current ~column
    else Ring.scope_push_none (ring t ~core) ~cycle:t.current
  | Nothing | Drains _ -> ()

let scope_pop t ~core =
  match t.recording with
  | All -> Ring.scope_pop (ring t ~core) ~cycle:t.current
  | Nothing | Drains _ -> ()

let mem_access t ~core ~addr ~write ~outcome =
  match t.recording with
  | All -> Ring.mem_access (ring t ~core) ~cycle:t.current ~addr ~write ~outcome
  | Nothing | Drains _ -> ()

let cas_result t ~core ~addr ~success =
  match t.recording with
  | All -> Ring.cas_result (ring t ~core) ~cycle:t.current ~addr ~success
  | Nothing | Drains _ -> ()

let iter_events t f = Ring.iter t.rings f
let length t = Array.fold_left (fun acc r -> acc + Ring.length r) 0 t.rings
let dropped t = Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings

let scope_counts t =
  Array.fold_left
    (fun (pushes, pops) r ->
      let p, q = Ring.scope_counts r in
      (pushes + p, pops + q))
    (0, 0) t.rings
