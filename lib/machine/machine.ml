module Core = Fscope_cpu.Core
module Mem_port = Fscope_cpu.Mem_port
module Exec_config = Fscope_cpu.Exec_config
module Hierarchy = Fscope_mem.Hierarchy
module Program = Fscope_isa.Program
module Obs = Fscope_obs

type spin_ff = {
  sleeps : int;
  cycles_skipped : int;
  wakes : int;
}

type shard_ctrs = {
  barriers : int;
  elided_cycles : int;
}

type result = {
  cycles : int;
  timed_out : bool;
  core_stats : Core.stats array;
  core_cpi : Obs.Cpi.t array;
  mem : int array;
  cache : Hierarchy.stats;
  spin : spin_ff;
  shard : shard_ctrs;
  sample_windows : (int * int) list;
  obs : Obs.Report.t option;
}

let fence_stall_cycles r =
  Array.fold_left (fun acc (s : Core.stats) -> acc + s.fence_stall_cycles) 0 r.core_stats

let total_active_cycles r =
  Array.fold_left (fun acc (s : Core.stats) -> acc + s.active_cycles) 0 r.core_stats

let fence_stall_fraction r =
  Fscope_util.Stats.ratio ~num:(fence_stall_cycles r) ~den:(total_active_cycles r)

let committed_instrs r =
  Array.fold_left (fun acc (s : Core.stats) -> acc + s.committed) 0 r.core_stats

let avg_rob_occupancy r =
  let sum =
    Array.fold_left (fun acc (s : Core.stats) -> acc + s.rob_occupancy_sum) 0 r.core_stats
  in
  Fscope_util.Stats.ratio ~num:sum ~den:(total_active_cycles r)

(* Snapshot every legacy stats record into the trace's metrics registry
   under stable names, so the registry subsumes the scattered
   [Core.stats] / [Hierarchy.stats] fields (and the summary sink's
   totals match the legacy accessors exactly). *)
let snapshot_stats trace r =
  let m = Obs.Trace.metrics trace in
  let set name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
  Array.iteri
    (fun i (s : Core.stats) ->
      let set_c field v = set (Printf.sprintf "core%d/%s" i field) v in
      set_c "committed" s.committed;
      set_c "committed_mem" s.committed_mem;
      set_c "committed_fences" s.committed_fences;
      set_c "fence_stall_cycles" s.fence_stall_cycles;
      set_c "sb_stall_cycles" s.sb_stall_cycles;
      set_c "branches" s.branches;
      set_c "mispredicts" s.mispredicts;
      set_c "loads" s.loads;
      set_c "stores" s.stores;
      set_c "cas_ops" s.cas_ops;
      set_c "rob_occupancy_sum" s.rob_occupancy_sum;
      set_c "active_cycles" s.active_cycles)
    r.core_stats;
  Array.iteri
    (fun i cpi ->
      List.iter
        (fun leaf ->
          set (Printf.sprintf "core%d/cpi/%s" i (Obs.Cpi.name leaf)) (Obs.Cpi.get cpi leaf))
        Obs.Cpi.leaves)
    r.core_cpi;
  List.iter
    (fun leaf ->
      let total =
        Array.fold_left (fun acc cpi -> acc + Obs.Cpi.get cpi leaf) 0 r.core_cpi
      in
      set (Printf.sprintf "total/cpi/%s" (Obs.Cpi.name leaf)) total)
    Obs.Cpi.leaves;
  set "total/fence_stall_cycles" (fence_stall_cycles r);
  set "total/active_cycles" (total_active_cycles r);
  set "total/committed" (committed_instrs r);
  set "mem/l1_hits" r.cache.Hierarchy.l1_hits;
  set "mem/l1_misses" r.cache.Hierarchy.l1_misses;
  set "mem/l2_hits" r.cache.Hierarchy.l2_hits;
  set "mem/l2_misses" r.cache.Hierarchy.l2_misses;
  set "mem/invalidations" r.cache.Hierarchy.invalidations;
  set "mem/c2c_transfers" r.cache.Hierarchy.c2c_transfers;
  set "machine/cycles" r.cycles

let hierarchy_kind = function
  | Mem_port.Read -> Hierarchy.Read
  | Mem_port.Write -> Hierarchy.Write
  | Mem_port.Rmw -> Hierarchy.Rmw

(* One machine instance: cores wired to shared memory through a
   Mem_port whose timing side is either the cache hierarchy or the
   ideal 1-cycle model ([Config.mem_model]).  The returned [on_store]
   ref is called with the address of every memory value write, just
   before the write lands — the engine points it at its spin-sleep
   watch table (it starts out as a no-op). *)
let build ~obs (config : Config.t) program =
  let cores_n = Program.thread_count program in
  let mem = Program.initial_memory program in
  let hierarchy = Hierarchy.create ~trace:obs ~cores:cores_n config.Config.mem in
  let on_store = ref (fun (_ : int) -> ()) in
  let issue, level =
    match config.Config.mem_model with
    | Config.Hierarchy ->
      ( (fun ~core kind ~addr ~now ->
          now + Hierarchy.access hierarchy ~core (hierarchy_kind kind) ~addr),
        fun () -> Hierarchy.last_outcome hierarchy )
    | Config.Ideal ->
      (* every access is a 1-cycle hit; the hierarchy above stays idle
         (its stats remain zero) but still anchors [result.cache] *)
      ((fun ~core:_ _kind ~addr:_ ~now -> now + 1), fun () -> Obs.Event.L1_hit)
  in
  let port =
    Mem_port.create ~size:(Array.length mem) ~issue ~level
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value ->
        !on_store addr;
        mem.(addr) <- value)
  in
  let cores =
    Array.init cores_n (fun id ->
        Core.create ~trace:obs ~id ~code:program.Program.threads.(id) ~port
          ~scope_config:config.Config.scope ~exec_config:config.Config.exec ())
  in
  (cores, mem, hierarchy, on_store)

(* ------------------------------------------------------------------ *)
(* The cycle stepper                                                   *)
(* ------------------------------------------------------------------ *)

(* One sequential stepper drives the three-phase protocol for every
   engine mode: {!advance} takes the machine to the top of a stop
   cycle, stepping the cores in core order within each phase.

   Per-core event-horizon scheduling.  A core whose three sub-steps
   all report no progress is frozen: every cycle-dependence of its
   step functions is a threshold already scheduled in its own state
   (execution completions, store-buffer drain times, a fetch-resume
   point), and other cores cannot change any of that — they only
   write shared memory, which a frozen core samples exactly at those
   thresholds, and the cache directory, which only affects the latency
   of accesses it has not issued yet.  So the core sleeps until its
   {!Core.next_wake} horizon: the stepper pre-charges the skipped
   span's stall/occupancy accounting in O(1) and stops stepping it,
   while awake cores keep executing cycle by cycle.  When every core
   sleeps, the clock jumps straight to the earliest wake-up.  Results
   are bit-identical to the naive loop.

   The stop rule.  The clock never jumps past the stop, a frozen
   core's horizon is capped at it (its stall accounting is charged
   through [stop - 1] only), and spin sleepers are caught up through
   [stop - 1] on exit.  So at the stop every core is in exactly the
   state the naive loop gives it at the top of that cycle — which is
   what lets a checkpoint land on its multiple, a sampled window exit
   with the naive counters, and every call re-derive its per-core
   schedule from the cores alone.

   Draining is monotonic (a halted core stays halted, its emptied
   store buffer stays empty), so a [never] wake plus a counter
   replaces the naive loop's per-cycle every-core [drained] scan. *)

(* The wake of a drained or spin-sleeping core: no cycle brings it. *)
let never = max_int

type stepper = {
  cores : Core.t array;
  n : int;
  mem : int array;
  hierarchy : Hierarchy.t;
  obs : Obs.Trace.t;
  hier_mem : bool;
  spin_on : bool;
  wake : int array;
  progress : bool array;
  mutable drained_count : int;
  sleeping : Core.spin_stable option array;
  watches : (int, int list) Hashtbl.t;
      (** watched address -> sorted list of sleeping watcher cores (a
          list, not a bitmask, so the machine is not capped at 62
          cores) *)
  mutable spin_sleeps : int;
  mutable spin_skipped : int;
  mutable spin_wakes : int;
      (** engine diagnostics, published once as [result.spin] *)
  mutable cycle : int;
  mutable stop : int;
  mutable finished : bool;
  mutable phase : int;
  mutable phase_core : int;
      (** the phase (1 or 3) and core the stepper is at, so a wake
          fired from inside another core's step can splice the sleeper
          back into the phase order it would have had in the naive
          loop *)
}

let register_watches t i (st : Core.spin_stable) =
  List.iter
    (fun addr ->
      let cur = Option.value (Hashtbl.find_opt t.watches addr) ~default:[] in
      Hashtbl.replace t.watches addr (List.sort_uniq Int.compare (i :: cur)))
    st.Core.footprint

let unregister_watches t i (st : Core.spin_stable) =
  List.iter
    (fun addr ->
      match Hashtbl.find_opt t.watches addr with
      | None -> ()
      | Some l -> (
        match List.filter (fun j -> j <> i) l with
        | [] -> Hashtbl.remove t.watches addr
        | l' -> Hashtbl.replace t.watches addr l'))
    st.Core.footprint

(* Catch a woken sleeper up through cycle [through]: replay whole
   periods in closed form, then solo-step the tail.  Solo-stepping is
   exact because within a period the core touches nothing shared — no
   stores or CAS can be in flight, and every load hits its own L1 — so
   interleaving with other cores' sub-steps is immaterial. *)
let catch_up t i (st : Core.spin_stable) ~through =
  let b = st.Core.armed_cycle in
  let k = if through <= b then 0 else (through - b) / st.Core.period in
  if k > 0 then begin
    Core.spin_replay t.cores.(i) ~stable:st ~k;
    if t.hier_mem then begin
      (* the skipped loads would all have hit this core's L1 *)
      let s = Hierarchy.stats t.hierarchy in
      s.Hierarchy.l1_hits <- s.Hierarchy.l1_hits + (k * st.Core.loads_per_period)
    end;
    t.spin_skipped <- t.spin_skipped + (k * st.Core.period)
  end;
  for x = b + (k * st.Core.period) + 1 to through do
    ignore (Core.step_complete_writes t.cores.(i) ~cycle:x);
    ignore (Core.step_complete_reads t.cores.(i) ~cycle:x);
    ignore (Core.step_pipeline t.cores.(i) ~cycle:x)
  done;
  Core.spin_cancel t.cores.(i)

(* A spin certificate stands only while every line its loop reads is
   still in the core's L1.  The probe saw each load of the period hit,
   but another core's write may have invalidated the line after the
   period's last load and before the arming boundary; sleeping then
   would replay L1 hits the naive loop does not make. *)
let footprint_cached t i (st : Core.spin_stable) =
  (not t.hier_mem)
  || List.for_all (fun addr -> Hierarchy.l1_resident t.hierarchy ~core:i ~addr) st.Core.footprint

(* Phase-3 body of the stepper, factored so a phase-3 wake can run it
   for the sleeper at its original position in core order. *)
let rec step3 t i c =
  if Core.step_pipeline t.cores.(i) ~cycle:c then t.progress.(i) <- true;
  if t.progress.(i) then begin
    if Core.drained t.cores.(i) then begin
      (* counted once: a [never] wake keeps it from being stepped again *)
      t.drained_count <- t.drained_count + 1;
      t.wake.(i) <- never
    end
    else begin
      t.wake.(i) <- c + 1;
      if t.spin_on then
        match Core.spin_poll t.cores.(i) ~cycle:c with
        | Some st when footprint_cached t i st ->
          (* proven stable: sleep until a watched line is written or
             invalidated (or the stop catches it up) *)
          t.sleeping.(i) <- Some st;
          register_watches t i st;
          t.wake.(i) <- never;
          t.spin_sleeps <- t.spin_sleeps + 1
        | Some _ | None -> ()
    end
  end
  else begin
    (* Frozen: sleep until the horizon (or, with nothing scheduled at
       all, until the stop — the core is stuck and can only wait out a
       timeout), charging the skipped span's per-cycle accounting up
       front.  The charge is exact: the run cannot end before this
       core's wake-up, because a sleeping core is never drained. *)
    let w = Int.min (Core.next_wake t.cores.(i) ~cycle:c) t.stop in
    Core.account_stall_span t.cores.(i) ~cycle:c ~cycles:(w - c - 1);
    t.wake.(i) <- w
  end

(* Wake fired from inside the current cycle's step loops, just before
   the disturbing write or invalidation takes effect. *)
and wake_core t i =
  match t.sleeping.(i) with
  | None -> ()
  | Some st ->
    t.sleeping.(i) <- None;
    unregister_watches t i st;
    Core.spin_cancel t.cores.(i);
    t.spin_wakes <- t.spin_wakes + 1;
    let c = t.cycle in
    if c = st.Core.armed_cycle then
      (* disturbed later in the very cycle it armed (by a core after it
         in phase-3 order): nothing was skipped and the core has
         already fully stepped this cycle *)
      t.wake.(i) <- c + 1
    else begin
      catch_up t i st ~through:(c - 1);
      if t.phase = 3 then begin
        (* cycle [c]'s write/read phases already passed this core; its
           writes phase is a no-op (empty store buffer, no CAS in
           flight — guaranteed by the arming probe) and completing
           reads now is exact because phase 3 never changes memory
           values.  Then: in the naive loop a core earlier in core
           order would have run its pipeline step before the
           disturber's — replay that ordering here; a later one is
           picked up by the phase-3 loop as usual. *)
        if Core.step_complete_reads t.cores.(i) ~cycle:c then t.progress.(i) <- true;
        if i < t.phase_core then step3 t i c else t.wake.(i) <- c
      end
      else begin
        (* phase 1: the disturbing store has not landed yet; the
           remaining phase loops of cycle [c] pick the core up *)
        t.progress.(i) <- false;
        t.wake.(i) <- c
      end
    end

let create ~obs (config : Config.t) program =
  let cores, mem, hierarchy, on_store = build ~obs config program in
  let n = Array.length cores in
  let spin_on =
    config.Config.exec.Exec_config.spin_fastforward && not (Obs.Trace.on obs)
  in
  let t =
    {
      cores;
      n;
      mem;
      hierarchy;
      obs;
      hier_mem = config.Config.mem_model = Config.Hierarchy;
      spin_on;
      wake = Array.make n 0;
      progress = Array.make n false;
      drained_count = 0;
      sleeping = Array.make n None;
      watches = Hashtbl.create 16;
      spin_sleeps = 0;
      spin_skipped = 0;
      spin_wakes = 0;
      cycle = 0;
      stop = 0;
      finished = false;
      phase = 0;
      phase_core = 0;
    }
  in
  (* Spin fast-forward (see Core's spin interface and DESIGN §11).  A
     core that is provably in a stable read-only spin loop sleeps past
     the horizon: its state can only stop being periodic when another
     core writes — or steals — a line it reads, so we watch the loop's
     load footprint and wake the sleeper the instant such an action is
     about to happen.  On wake (and at the stop) the skipped whole
     periods are replayed in closed form and the partial tail is
     re-stepped normally, which lands the core in exactly the state
     naive stepping would have produced.  One rule for every driver
     (exact runs, checkpoint legs, sampled windows and settle steps):
     on when the config enables it and the run is untraced — a traced
     run must emit every per-cycle event. *)
  if spin_on then begin
    Array.iter (fun core -> Core.set_spin_ff core true) cores;
    on_store :=
      (fun addr ->
        match Hashtbl.find_opt t.watches addr with
        | None -> ()
        | Some l -> List.iter (wake_core t) l (* ascending core order *));
    (* a write/RMW/eviction about to invalidate or downgrade a
       sleeper's L1 line could change what its loop observes (values
       or latencies) — wake it first *)
    Hierarchy.set_remote_victim_hook hierarchy (fun ~core ->
        if Option.is_some t.sleeping.(core) then wake_core t core)
  end;
  t

(* The public result of a finished run: the engine diagnostics are
   published once from the stepper's counters, and a traced run also
   snapshots every stats record into the registry and carries its
   report. *)
let finish t ~cycles ~timed_out ~windows =
  let r : result =
    {
      cycles;
      timed_out;
      core_stats = Array.map Core.stats t.cores;
      core_cpi = Array.map Core.cpi t.cores;
      mem = t.mem;
      cache = Hierarchy.stats t.hierarchy;
      spin = { sleeps = t.spin_sleeps; cycles_skipped = t.spin_skipped; wakes = t.spin_wakes };
      shard = { barriers = 0; elided_cycles = 0 };
      sample_windows = windows;
      obs = None;
    }
  in
  if Obs.Trace.on t.obs then begin
    snapshot_stats t.obs r;
    { r with obs = Some (Obs.Report.of_trace ~cycles ~timed_out t.obs) }
  end
  else r

(* Step the machine to the top of [stop], or until every core has
   drained.  Entry re-derives the schedule from the cores (live cores
   awake, drained ones retired): exact at cycle 0, after a restore or
   a functional leg, and at any stop.  Each cycle runs the three
   phases over the cores whose wake has come, in core order; then the
   clock moves to the first cycle at which anything can happen (awake
   cores have wake = c+1; if everyone sleeps this jumps the clock),
   never past the stop. *)
let advance t ~stop =
  t.stop <- stop;
  t.drained_count <- 0;
  for i = 0 to t.n - 1 do
    let drained = Core.drained t.cores.(i) in
    if drained then t.drained_count <- t.drained_count + 1;
    t.wake.(i) <- (if drained then never else t.cycle)
  done;
  Obs.Trace.set_now t.obs t.cycle;
  while (not t.finished) && t.cycle < stop do
    let c = t.cycle in
    t.phase <- 1;
    for i = 0 to t.n - 1 do
      t.progress.(i) <- t.wake.(i) <= c && Core.step_complete_writes t.cores.(i) ~cycle:c
    done;
    for i = 0 to t.n - 1 do
      if t.wake.(i) <= c && Core.step_complete_reads t.cores.(i) ~cycle:c then
        t.progress.(i) <- true
    done;
    t.phase <- 3;
    for i = 0 to t.n - 1 do
      t.phase_core <- i;
      if t.wake.(i) <= c then step3 t i c
    done;
    let next = ref max_int in
    for i = 0 to t.n - 1 do
      if t.wake.(i) < !next then next := t.wake.(i)
    done;
    t.finished <- t.drained_count = t.n;
    t.cycle <- (if t.finished then c + 1 else Int.min stop (Int.max !next (c + 1)));
    if (not t.finished) && t.cycle < stop then Obs.Trace.set_now t.obs t.cycle
  done;
  if not t.finished then
    Array.iteri
      (fun i s ->
        match s with
        | None -> ()
        | Some st ->
          t.sleeping.(i) <- None;
          unregister_watches t i st;
          catch_up t i st ~through:(t.cycle - 1))
      t.sleeping

(* ------------------------------------------------------------------ *)
(* Plain runs and checkpoints                                          *)
(* ------------------------------------------------------------------ *)

(* Overwrite a freshly built machine with checkpointed state; the
   first {!advance} re-derives the schedule from the restored cores. *)
let restore t (config : Config.t) program (ck : Checkpoint.t) =
  Checkpoint.validate ck config program;
  if Array.length ck.Checkpoint.cores <> t.n then failwith "checkpoint: core count mismatch";
  if Array.length ck.Checkpoint.mem <> Array.length t.mem then
    failwith "checkpoint: memory size mismatch";
  Array.iteri (fun i j -> Core.restore t.cores.(i) j) ck.Checkpoint.cores;
  Array.blit ck.Checkpoint.mem 0 t.mem 0 (Array.length t.mem);
  Hierarchy.restore t.hierarchy ck.Checkpoint.hierarchy;
  t.cycle <- ck.Checkpoint.cycle

(* Advance to [max_cycles] in [every]-cycle legs, capturing at each
   stop the run reaches before it ends: the stop rule has put every
   core, spin sleepers included, in its naive-loop state. *)
let run_exact ~obs ?checkpoint ?resume (config : Config.t) program =
  let t = create ~obs config program in
  Option.iter (restore t config program) resume;
  let max_cycles = config.Config.max_cycles in
  let every, sink = Option.value checkpoint ~default:(max_cycles, ignore) in
  let digest = lazy (Checkpoint.digest config program) in
  let rec legs () =
    advance t ~stop:(t.cycle + Int.min every (max_cycles - t.cycle));
    if (not t.finished) && t.cycle < max_cycles then begin
      sink
        {
          Checkpoint.cycle = t.cycle;
          digest = Lazy.force digest;
          cores = Array.map Core.snapshot t.cores;
          mem = Array.copy t.mem;
          hierarchy = Hierarchy.to_json t.hierarchy;
        };
      legs ()
    end
  in
  legs ();
  finish t ~cycles:t.cycle ~timed_out:(t.drained_count < t.n) ~windows:[]

(* ------------------------------------------------------------------ *)
(* SMARTS-style interval sampling                                      *)
(* ------------------------------------------------------------------ *)

(* Alternate measured detailed windows with functional fast-forward
   (DESIGN §15).  Exact event counters (commits, memory ops, fences,
   branches, final memory) accumulate across both modes and stay
   exact; cycle-valued metrics (CPI leaves, mispredicts, occupancy,
   cache stats, the cycle count itself) are measured inside the
   detailed windows only and scaled by committed-instruction coverage
   at the end ([Core.extrapolate]).  Deterministic — same config and
   program always produce the same estimate — but an ESTIMATE: the
   sampled harness tests bound the per-metric error against the exact
   engine.

   Structure of one round after the (unwarmed, cold-start-is-real)
   first window:

     flush_arch*  ->  functional FF (ff_instrs per core, round-robin
     one instruction per live core)  ->  reseed_scope*  ->  warmup
     cycles (accounting erased)  ->  measured detailed cycles

   Every detailed window (warmup and measured alike) is one {!advance}
   with the window end as the stop, under the same spin
   fast-forward rule as an exact run: the stop rule catches sleepers
   up, so each window exits with the naive loop's counters. *)
let run_sampled ~obs (config : Config.t) program (s : Config.sampling) =
  let t = create ~obs config program in
  let cores = t.cores and n = t.n and max_cycles = config.Config.max_cycles in
  let hstats = Hierarchy.stats t.hierarchy in
  let set_hstats f (h : Hierarchy.stats) =
    hstats.Hierarchy.l1_hits <- f h.Hierarchy.l1_hits;
    hstats.Hierarchy.l1_misses <- f h.Hierarchy.l1_misses;
    hstats.Hierarchy.l2_hits <- f h.Hierarchy.l2_hits;
    hstats.Hierarchy.l2_misses <- f h.Hierarchy.l2_misses;
    hstats.Hierarchy.invalidations <- f h.Hierarchy.invalidations;
    hstats.Hierarchy.c2c_transfers <- f h.Hierarchy.c2c_transfers
  in
  (* Snapshot the micro-architectural accounting; the returned thunk
     erases everything charged since. *)
  let mark () =
    let snaps = Array.map Core.counters_snapshot cores in
    let h = { hstats with Hierarchy.l1_hits = hstats.Hierarchy.l1_hits } in
    fun () ->
      Array.iteri (fun i c -> Core.counters_restore c snaps.(i)) cores;
      set_hstats Fun.id h
  in
  let measured = Array.make n 0 in
  let sampled_any = ref false in
  let worst f =
    let w = ref 0 in
    Array.iteri (fun i c -> w := Int.max !w (f i (Core.stats c))) cores;
    !w
  in
  (* Estimated whole-run cycle count: cores run concurrently from
     cycle 0, so the machine estimate is the slowest core's scaled
     active cycles. *)
  let estimate () =
    worst (fun i st ->
        let m = measured.(i) in
        if m > 0 && st.Core.committed > m then st.Core.active_cycles * st.Core.committed / m
        else st.Core.active_cycles)
  in
  let windows = ref [] in
  (* A window stops at [max_cycles] like an exact run, and the run ends
     there, timed out. *)
  let detailed_cycles k ~measure =
    let before = Array.map (fun c -> (Core.stats c).Core.committed) cores in
    let start = t.cycle in
    let stop = Int.min (start + k) max_cycles in
    if (not t.finished) && stop > start then advance t ~stop;
    if t.cycle >= max_cycles then t.finished <- true;
    if measure && t.cycle > start then windows := (start, t.cycle - 1) :: !windows;
    if measure then
      Array.iteri
        (fun i b ->
          measured.(i) <- measured.(i) + ((Core.stats cores.(i)).Core.committed - b))
        before
  in
  (* First window: the cold start is real execution, measure it
     without a warmup bracket. *)
  detailed_cycles s.Config.detailed ~measure:true;
  while not t.finished do
    (* detailed -> functional: collapse to architectural state.  A CAS
       performs its read-modify-write at its completion point, before
       commit, so a core whose ROB holds a [Done] CAS must not flush:
       discarding the entry would let the functional leg apply the
       write a second time.  Settle instead — flush and park each core
       the moment it is [Core.flushable], and step the stragglers
       detailed until everyone has flushed.  A completed CAS is
       non-speculative (issue rules) and commits within bounded
       cycles, so this converges fast.  Settle commits are real
       forward progress (the exact counters keep them), but the
       micro-architectural accounting is erased like warmup: the
       measured windows already stand for this regime. *)
    sampled_any := true;
    let erase = mark () in
    let flushed = Array.make n false in
    let settle = ref 0 in
    let all_flushed = ref false in
    while not !all_flushed do
      all_flushed := true;
      for i = 0 to n - 1 do
        if not flushed.(i) then
          if Core.flushable cores.(i) then begin
            Core.flush_arch cores.(i);
            Core.park cores.(i);
            flushed.(i) <- true
          end
          else all_flushed := false
      done;
      if not !all_flushed then begin
        advance t ~stop:(t.cycle + 1);
        incr settle;
        if !settle > 1_000_000 then
          failwith "Machine.run: sampled flush settle did not converge"
      end
    done;
    erase ();
    Array.iter Core.unpark cores;
    let budget = Array.make n s.Config.ff_instrs in
    let live = ref true in
    while !live do
      live := false;
      for i = 0 to n - 1 do
        if budget.(i) > 0 then
          if Core.func_step cores.(i) then begin
            budget.(i) <- budget.(i) - 1;
            live := true
          end
          else budget.(i) <- 0
      done
    done;
    if Array.for_all Core.halted cores then t.finished <- true
    else if estimate () >= max_cycles then
      (* stuck or runaway workload: the scaled estimate already blows
         the cycle budget, so stop — the run reports timed out, like
         the detailed engine at [max_cycles] *)
      t.finished <- true
    else begin
      (* functional -> detailed: rebuild scope state, re-warm the
         pipeline with erased accounting, then measure *)
      Array.iter Core.reseed_scope cores;
      let erase = mark () in
      detailed_cycles s.Config.warmup ~measure:false;
      if not t.finished then begin
        (* erase warmup accounting (unless the run ended inside the
           warmup — then those cycles are the true tail and stand) *)
        erase ();
        detailed_cycles s.Config.detailed ~measure:true
      end
    end
  done;
  (* Scale measured micro-architecture to the whole run. *)
  let total_all = ref 0 and measured_all = ref 0 in
  for i = 0 to n - 1 do
    let total = (Core.stats cores.(i)).Core.committed in
    total_all := !total_all + total;
    measured_all := !measured_all + measured.(i);
    Core.extrapolate cores.(i) ~total ~measured:measured.(i)
  done;
  if !measured_all > 0 && !total_all > !measured_all then
    set_hstats (fun x -> x * !total_all / !measured_all) hstats;
  (* [Core.extrapolate] already scaled each core's active cycles to
     the whole run, so the machine estimate is now a plain max. *)
  let cycles =
    if !sampled_any then
      Int.min max_cycles (Int.max t.cycle (worst (fun _ st -> st.Core.active_cycles)))
    else t.cycle
  in
  finish t ~cycles ~windows:(List.rev !windows)
    ~timed_out:(not (Array.for_all Core.drained cores))

(* Entry point: the sampled driver when the config asks for it,
   otherwise the plain driver. *)
let run ?(obs = Obs.Trace.null) ?checkpoint ?resume (config : Config.t) program =
  let checkpointing = Option.is_some checkpoint || Option.is_some resume in
  match (config.Config.sampling, checkpoint) with
  | _, Some (every, _) when every <= 0 ->
    invalid_arg "Machine.run: checkpoint interval must be positive"
  | Some _, _ when checkpointing ->
    invalid_arg "Machine.run: sampling and checkpointing are incompatible"
  | Some s, _ -> run_sampled ~obs config program s
  | None, _ when checkpointing && Obs.Trace.on obs ->
    invalid_arg "Machine.run: checkpointing is an untraced-run facility"
  | None, _ -> run_exact ~obs ?checkpoint ?resume config program

(* The retained naive loop: one cycle at a time, no fast-forward.  The
   differential suite holds [run] to bit-identical results against
   this, and the bench harness quotes the wall-clock win over it.  It
   borrows only the stepper's machine instance, built with spin
   fast-forward off, never its schedule: every core takes the
   three-phase protocol every cycle (see Core's interface for why the
   order matters). *)
let run_reference ?(obs = Obs.Trace.null) (config : Config.t) program =
  let t = create ~obs (Config.v ~base:config ~spin_fastforward:false ()) program in
  let all_done () = Array.for_all Core.drained t.cores in
  while (not (all_done ())) && t.cycle < config.Config.max_cycles do
    let cycle = t.cycle in
    Obs.Trace.set_now obs cycle;
    for i = 0 to t.n - 1 do
      ignore (Core.step_complete_writes t.cores.(i) ~cycle)
    done;
    for i = 0 to t.n - 1 do
      ignore (Core.step_complete_reads t.cores.(i) ~cycle)
    done;
    for i = 0 to t.n - 1 do
      ignore (Core.step_pipeline t.cores.(i) ~cycle)
    done;
    t.cycle <- cycle + 1
  done;
  finish t ~cycles:t.cycle ~timed_out:(not (all_done ())) ~windows:[]

let same_outcome a b = { a with spin = b.spin } = b
