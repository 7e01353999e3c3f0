(* Live server-suite gauges, recovered from the store-buffer drain
   stream the simulator already traces.

   Each server workload's data-structure occupancy can be read off the
   same [Sb_drain] markers the latency extraction uses: a store into a
   known address region with a value only one protocol step can
   produce.  The samplers below classify those drains, maintain the
   implied occupancy as the (deterministically ordered) event stream
   is replayed, and observe every transition into log2-bucket
   histograms in the metrics registry:

   - server-mpmc: queue depth — the enqueue's node-value store minus
     the claiming worker's first claims increment (exactly the
     inject/retire markers of {!Mpmc.latency_markers});
   - server-steal: per-worker deque occupancy — a put is the task
     store into [q<w>.buf] (task ids are globally unique, so the value
     names the deque the task was injected into), a removal is the
     first non-zero claims increment for that task, charged to the
     deque that owned it;
   - server-cache: per-thread limbo-ring length — a retirement is the
     node store into [climbo<t>], a reclamation the node store into
     [cfree<t>] (the free array's initial contents are memory-image
     data, not runtime stores, so every drain there is a
     reclamation).

   Sampling is a post-hoc fold over [Trace.iter_events], never live at
   the emission site, so it inherits the trace's deterministic
   cycle/core/emission order — the histograms are bit-identical across
   --jobs and --shard-domains, like everything else in a row.

   All address arithmetic derives from the program image's symbol
   table alone (region = gap to the next symbol), so a sampler works
   for any parameterisation of its workload. *)

module Program = Fscope_isa.Program
module Obs = Fscope_obs

type t = {
  label : string;
      (* short metric label for table rows, e.g. "queue_depth" *)
  hist : string;
      (* registry name of the aggregate histogram the fold fills *)
  drains : addr:int -> value:int -> bool;
      (* trace drain predicate accepting exactly the marker drains *)
  fold : Obs.Metrics.t -> ((Obs.Event.timed -> unit) -> unit) -> unit;
      (* replay retained events, as an iterator such as
         [Trace.iter_events trace], into gauge histograms *)
}

(* Symbol region: base address and length, the length being the gap to
   the next symbol (or the end of memory).  The layout allocator pads
   every symbol to a cache-line boundary, so a region can exceed the
   true array by up to line_words - 1 padding words; that slack is
   harmless here because no store ever targets padding, and every
   classifier below requires both an in-region address and a
   protocol-specific value. *)
let region program name =
  let base = Program.address_of program name in
  let next =
    List.fold_left
      (fun acc (_, a) -> if a > base && a < acc then a else acc)
      program.Program.mem_words program.Program.symbols
  in
  (base, next - base)

let fold_drains events f =
  events (fun (te : Obs.Event.timed) ->
      match te.Obs.Event.event with
      | Obs.Event.Sb_drain { addr; value } -> f ~addr ~value
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* server-mpmc: queue depth                                            *)

let mpmc program =
  let threads = Program.thread_count program in
  let requests = snd (region program "claims0") - 2 in
  let inject_slot, retire_slot = Mpmc.latency_markers ~requests ~threads program in
  let drains = Mpmc.keep_latency ~requests ~threads program in
  let fold metrics events =
    let h = Obs.Metrics.histogram metrics "gauge/server-mpmc/queue_depth" in
    let injected = Array.make requests false in
    let retired = Array.make requests false in
    let depth = ref 0 in
    fold_drains events (fun ~addr ~value ->
        (match inject_slot addr value with
        | Some s when not injected.(s) ->
          injected.(s) <- true;
          incr depth;
          Obs.Metrics.observe h !depth
        | _ -> ());
        match retire_slot addr value with
        | Some s when injected.(s) && not retired.(s) ->
          retired.(s) <- true;
          decr depth;
          Obs.Metrics.observe h !depth
        | _ -> ())
  in
  { label = "queue_depth"; hist = "gauge/server-mpmc/queue_depth"; drains; fold }

(* ------------------------------------------------------------------ *)
(* server-steal: per-worker deque occupancy                            *)

let steal program =
  let workers = Program.thread_count program in
  let n_tasks = snd (region program "taskkey") - 1 in
  let bufs = Array.init workers (fun w -> region program (Printf.sprintf "q%d.buf" w)) in
  let claims = Array.init workers (fun w -> region program (Printf.sprintf "sclaims%d" w)) in
  (* The put's buffer store names the deque by address and the task by
     value; the claim drain only names the task.  A put always drains
     before the corresponding claim (the consumer can't see the task
     until the owner's FIFO store buffer drained it), so recording
     ownership at put time resolves every later claim. *)
  let put_task addr value =
    if value >= 1 && value <= n_tasks then
      let rec go w =
        if w >= workers then None
        else
          let base, len = bufs.(w) in
          if addr >= base && addr < base + len then Some (w, value) else go (w + 1)
      in
      go 0
    else None
  in
  let claim_task addr value =
    if value = 0 then None
    else
      Array.fold_left
        (fun acc (base, len) ->
          match acc with
          | Some _ -> acc
          | None ->
            let t = addr - base in
            if t >= 1 && t < len && t <= n_tasks then Some t else None)
        None claims
  in
  let drains ~addr ~value =
    put_task addr value <> None || claim_task addr value <> None
  in
  let fold metrics events =
    let all = Obs.Metrics.histogram metrics "gauge/server-steal/deque_occupancy" in
    let per =
      Array.init workers (fun w ->
          Obs.Metrics.histogram metrics
            (Printf.sprintf "gauge/server-steal/deque_occupancy/w%d" w))
    in
    let owner = Array.make (n_tasks + 1) (-1) in
    let removed = Array.make (n_tasks + 1) false in
    let occ = Array.make workers 0 in
    let observe w =
      Obs.Metrics.observe all occ.(w);
      Obs.Metrics.observe per.(w) occ.(w)
    in
    fold_drains events (fun ~addr ~value ->
        (match put_task addr value with
        | Some (w, task) when owner.(task) < 0 ->
          owner.(task) <- w;
          occ.(w) <- occ.(w) + 1;
          observe w
        | _ -> ());
        match claim_task addr value with
        | Some task when owner.(task) >= 0 && not removed.(task) ->
          removed.(task) <- true;
          let w = owner.(task) in
          occ.(w) <- occ.(w) - 1;
          observe w
        | _ -> ())
  in
  {
    label = "deque_occ";
    hist = "gauge/server-steal/deque_occupancy";
    drains;
    fold;
  }

(* ------------------------------------------------------------------ *)
(* server-cache: per-thread limbo-ring length                          *)

let cache program =
  let threads = Program.thread_count program in
  let limbo = Array.init threads (fun t -> region program (Printf.sprintf "climbo%d" t)) in
  let free = Array.init threads (fun t -> region program (Printf.sprintf "cfree%d" t)) in
  let owner_of regions addr value =
    if value <= 0 then None
    else
      let rec go t =
        if t >= threads then None
        else
          let base, len = regions.(t) in
          if addr >= base && addr < base + len then Some t else go (t + 1)
      in
      go 0
  in
  let drains ~addr ~value =
    owner_of limbo addr value <> None || owner_of free addr value <> None
  in
  let fold metrics events =
    let all = Obs.Metrics.histogram metrics "gauge/server-cache/limbo_len" in
    let per =
      Array.init threads (fun t ->
          Obs.Metrics.histogram metrics
            (Printf.sprintf "gauge/server-cache/limbo_len/t%d" t))
    in
    let len = Array.make threads 0 in
    let observe t =
      Obs.Metrics.observe all len.(t);
      Obs.Metrics.observe per.(t) len.(t)
    in
    fold_drains events (fun ~addr ~value ->
        match owner_of limbo addr value with
        | Some t ->
          len.(t) <- len.(t) + 1;
          observe t
        | None -> (
          match owner_of free addr value with
          | Some t when len.(t) > 0 ->
            len.(t) <- len.(t) - 1;
            observe t
          | _ -> ()))
  in
  { label = "limbo_len"; hist = "gauge/server-cache/limbo_len"; drains; fold }

(* ------------------------------------------------------------------ *)

let for_workload ~name program =
  match name with
  | "server-mpmc" -> Some (mpmc program)
  | "server-steal" -> Some (steal program)
  | "server-cache" -> Some (cache program)
  | _ -> None
