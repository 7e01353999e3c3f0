(* Public facade over the pipeline-stage submodules: Core_state (the
   record and operand plumbing), Core_exec (completions, branch
   resolution), Core_commit, Core_issue and Core_frontend.  This
   module owns creation, the per-cycle step protocol, and the two
   engine hooks ([next_wake], [account_stall_span]) the fast-forward
   scheduler uses to skip pure-stall spans. *)

module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit
module Cpi = Fscope_obs.Cpi

type stats = {
  committed : int;
  committed_mem : int;
  committed_fences : int;
  fence_stall_cycles : int;
  sb_stall_cycles : int;
  branches : int;
  mispredicts : int;
  loads : int;
  stores : int;
  cas_ops : int;
  rob_occupancy_sum : int;
  active_cycles : int;
}

type t = Core_state.t

let create ?(trace = Fscope_obs.Trace.null) ~id ~code ~port ~scope_config ~exec_config ()
    =
  Exec_config.validate exec_config;
  let obs =
    if Fscope_obs.Trace.on trace then
      let m = Fscope_obs.Trace.metrics trace in
      let named fmt = Printf.sprintf fmt id in
      Some
        {
          Core_state.trace;
          stall_hist = Fscope_obs.Metrics.histogram m "fence/stall_cycles";
          rob_gauge = Fscope_obs.Metrics.gauge m (named "core%d/rob_occupancy");
          sb_gauge = Fscope_obs.Metrics.gauge m (named "core%d/sb_occupancy");
          stall_begin = -1;
        }
    else None
  in
  {
    Core_state.id;
    code;
    src_regs = Core_state.src_regs_table code;
    port;
    scope = Scope_unit.create ~trace ~core:id scope_config;
    cfg = exec_config;
    rob =
      Rob.create ~trace ~core:id ~size:exec_config.rob_size
        ~columns:scope_config.Scope_unit.fsb_entries ();
    sb = Store_buffer.create ~trace ~core:id ~capacity:exec_config.sb_size ();
    bpred = Branch_pred.create ~entries:exec_config.bpred_entries;
    arf = Array.make Reg.count 0;
    rename = Array.make Reg.count Rob.Arch;
    fetch_pc = 0;
    fetch_resume = 0;
    fetch_stopped = false;
    halted = false;
    arch_nest = [];
    counts = Core_state.fresh_counts ();
    cpi = Cpi.create ();
    cycle_charged = false;
    spin_last_pc = -1;
    spin_dirty = true;
    spin_mode = false;
    spin_probe = Core_state.fresh_probe ();
    obs;
  }

let id (t : t) = t.id
let halted (t : t) = t.halted
let drained (t : t) = t.halted && Store_buffer.is_empty t.sb

(* The legacy stats record is now a derived view: commit-stream
   counters straight from [counts], stall attribution summed out of
   the CPI table (so the two can never disagree). *)
let stats (t : t) =
  let c = t.Core_state.counts in
  let cpi = t.Core_state.cpi in
  {
    committed = c.committed;
    committed_mem = c.committed_mem;
    committed_fences = c.committed_fences;
    fence_stall_cycles = Cpi.fence_cycles cpi;
    sb_stall_cycles = Cpi.get cpi Cpi.Sb_full;
    branches = c.branches;
    mispredicts = c.mispredicts;
    loads = c.loads;
    stores = c.stores;
    cas_ops = c.cas_ops;
    rob_occupancy_sum = c.rob_occupancy_sum;
    active_cycles = c.active_cycles;
  }

let cpi (t : t) = Cpi.copy t.Core_state.cpi
let scope_unit (t : t) = t.scope

let step_complete_writes = Core_exec.step_complete_writes
let step_complete_reads = Core_exec.step_complete_reads

let step_pipeline (t : t) ~cycle =
  if t.halted then false
  else begin
    t.counts.active_cycles <- t.counts.active_cycles + 1;
    t.counts.rob_occupancy_sum <- t.counts.rob_occupancy_sum + Rob.count t.rob;
    (match t.obs with
    | Some o ->
      Fscope_obs.Metrics.gauge_observe o.rob_gauge (Rob.count t.rob);
      Fscope_obs.Metrics.gauge_observe o.sb_gauge (Store_buffer.count t.sb)
    | None -> ());
    t.cycle_charged <- false;
    let p_final = Core_exec.finalize t ~cycle in
    let p_commit = Core_commit.commit t ~cycle in
    let p_back =
      if not t.halted then begin
        let p_issue = Core_issue.issue t ~cycle in
        let p_dispatch = Core_frontend.dispatch t ~cycle in
        p_issue || p_dispatch
      end
      else false
    in
    (* Exactly one CPI leaf per active cycle: the commit loop already
       charged a blocked fence / full store buffer if that is what
       bounded this cycle; otherwise commits decide, and a
       zero-commit cycle is classified off the (then stable) head. *)
    if not t.cycle_charged then
      Cpi.charge t.cpi
        (if p_commit then if t.spin_mode then Cpi.Spin_candidate else Cpi.Commit
         else Core_commit.classify_blocked t ~cycle);
    (* End-of-cycle spin-stability probe: runs only on cycles in which
       a spinning backward edge committed, and only when the engine
       opted in (never in the naive reference loop or under tracing). *)
    let pr = t.spin_probe in
    if pr.pr_boundary then begin
      pr.pr_boundary <- false;
      Core_spin.on_boundary t ~cycle
    end;
    p_final || p_commit || p_back
  end

let account_stall_span = Core_commit.account_stall_span

type spin_stable = Core_state.stable = {
  armed_cycle : int;
  period : int;
  d_counts : int array;
  d_cpi : int array;
  loads_per_period : int;
  footprint : int list;
}

let set_spin_ff (t : t) on = t.spin_probe.pr_enabled <- on
let spin_poll = Core_spin.poll
let spin_cancel = Core_spin.cancel
let spin_replay (t : t) ~stable ~k = Core_spin.replay t ~stable ~k

(* Shard-classification predicates for the domain-sharded engine: may
   the core's next sub-step touch state shared between cores?  Each
   over-approximates (a [true] only costs parallelism; a missed [true]
   would break bit-identity), and each is exact enough to matter. *)

(* Phase 1 (complete-writes) touches shared memory iff a store-buffer
   entry drains this cycle or a CAS reaches its completion point.
   Exact at the time the engine asks (phase-1 start): phase 1 never
   creates new completions. *)
let writes_pending (t : t) ~cycle =
  let pending = ref false in
  Store_buffer.iter t.sb (fun en -> if en.done_at <= cycle then pending := true);
  if not !pending then
    Rob.iter_exec t.rob (fun e ->
        match (e.instr, e.state) with
        | Fscope_isa.Instr.Cas _, Rob.Executing d -> if d <= cycle then pending := true
        | _, (Rob.Waiting | Rob.Executing _ | Rob.Done) -> ());
  !pending

(* Phase 3 (pipeline) reaches the memory port — and under the cache
   hierarchy model, shared directory/stats state even on an L1 hit —
   in exactly three places: a store committing into the store buffer,
   a load issuing, a CAS issuing.  Stores can commit from any ROB
   state; loads and CAS issue only out of [Waiting].  Dispatch runs
   after issue within the step, so entries appearing this cycle cannot
   also issue this cycle and the phase-start answer is sound. *)
let may_touch_mem (t : t) =
  (not t.halted)
  &&
  let touch = ref false in
  Rob.iter t.rob (fun e ->
      match (e.instr, e.state) with
      | Fscope_isa.Instr.Store _, _ -> touch := true
      | (Fscope_isa.Instr.Load _ | Fscope_isa.Instr.Cas _), Rob.Waiting -> touch := true
      | _, (Rob.Waiting | Rob.Executing _ | Rob.Done) -> ());
  !touch

(* Can this phase-3 step end with an armed spin-stability certificate
   (and therefore a sleep transition, which registers shared watches)?
   Arming inside [Core_spin.on_boundary] compares against a snapshot
   taken at a PREVIOUS boundary, so [pr_snap = None] at phase start
   guarantees {!spin_poll} returns [None] this cycle. *)
let spin_may_arm (t : t) =
  t.spin_probe.pr_enabled && t.spin_probe.pr_snap <> None

(* Whole-cycle FREE horizon for barrier elision.  [quiet_until t ~from
   ~cap ~hier] returns the largest cycle X in [from-1, cap] such that
   stepping this core through cycles [from..X] provably performs no
   shared-state step: no store-buffer drain or CAS write reaches
   memory, no ordered phase-3 step runs, no spin certificate can arm
   (so no sleep transition registers watches), and the core cannot
   halt (so the engine's drain bookkeeping stays untouched).  [from-1]
   means "no quiet span at all".  Three sources bound the horizon:

   - the store buffer: the earliest [done_at] writes memory, so the
     span must end strictly before it;
   - the ROB: any in-flight Store / Cas / Branch / Halt (plus Load
     under the cache hierarchy, where even a hit bumps directory
     state) can act at unpredictable cycles once present, so its mere
     presence collapses the horizon;
   - the fetch stream: walking the static code from [fetch_pc]
     (following unconditional jumps, assuming fetch restarts at
     [max from fetch_resume] and sustains the full fetch width — both
     earliest-possible, therefore conservative) bounds the first cycle
     an unsafe instruction can enter the ROB; the span ends strictly
     before that fetch cycle.  No Branch in the ROB or in the walked
     prefix means nothing can redirect fetch off the walked path, and
     ROB-full back-pressure only delays fetch, never hastens it.

   The walk is capped at [stream_walk_slots] budget slots so a pure
   jump/ALU loop terminates; stopping early just shortens the proven
   span, never unsounds it. *)
let stream_walk_slots = 1024

let quiet_until (t : t) ~from ~cap ~hier =
  let bound = ref cap in
  let cut c = if c < !bound then bound := c in
  Store_buffer.iter t.sb (fun en -> cut (en.done_at - 1));
  if not t.halted then begin
    if spin_may_arm t then cut (from - 1);
    Rob.iter t.rob (fun e ->
        match e.instr with
        | Fscope_isa.Instr.Store _ | Fscope_isa.Instr.Cas _ | Fscope_isa.Instr.Branch _
        | Fscope_isa.Instr.Halt -> cut (from - 1)
        | Fscope_isa.Instr.Load _ -> if hier then cut (from - 1)
        | Fscope_isa.Instr.Nop | Fscope_isa.Instr.Li _ | Fscope_isa.Instr.Alu _
        | Fscope_isa.Instr.Tid _ | Fscope_isa.Instr.Jump _ | Fscope_isa.Instr.Fence _
        | Fscope_isa.Instr.Fs_start _ | Fscope_isa.Instr.Fs_end _ -> ());
    if (not t.fetch_stopped) && !bound >= from then begin
      let width = max 1 t.cfg.Exec_config.fetch_width in
      let first = max from t.fetch_resume in
      let len = Array.length t.code in
      let pc = ref t.fetch_pc in
      let slots = ref 0 in
      let scanning = ref true in
      while !scanning do
        let fetch_cycle = first + (!slots / width) in
        if !pc < 0 || !pc >= len then scanning := false (* fetch runs dry *)
        else if fetch_cycle > !bound then scanning := false
        else if !slots >= stream_walk_slots then begin
          cut (fetch_cycle - 1);
          scanning := false
        end
        else
          match t.code.(!pc) with
          | Fscope_isa.Instr.Store _ | Fscope_isa.Instr.Cas _
          | Fscope_isa.Instr.Branch _ | Fscope_isa.Instr.Halt ->
            cut (fetch_cycle - 1);
            scanning := false
          | Fscope_isa.Instr.Load _ when hier ->
            cut (fetch_cycle - 1);
            scanning := false
          | Fscope_isa.Instr.Jump target ->
            incr slots;
            pc := target
          | Fscope_isa.Instr.Nop | Fscope_isa.Instr.Li _ | Fscope_isa.Instr.Alu _
          | Fscope_isa.Instr.Tid _ | Fscope_isa.Instr.Load _ | Fscope_isa.Instr.Fence _
          | Fscope_isa.Instr.Fs_start _ | Fscope_isa.Instr.Fs_end _ ->
            incr slots;
            incr pc
      done
    end
  end;
  max (from - 1) !bound

let next_wake (t : t) ~cycle =
  let m = ref max_int in
  let consider d = if d > cycle && d < !m then m := d in
  if not t.halted then begin
    Rob.iter_exec t.rob (fun e ->
        match e.state with
        | Rob.Executing d -> consider d
        | Rob.Waiting | Rob.Done -> ());
    if (not t.fetch_stopped) && t.fetch_resume > cycle then consider t.fetch_resume
  end;
  (* Even a halted core's store buffer keeps draining — those
     completions write memory and gate [drained]. *)
  Store_buffer.iter t.sb (fun en -> consider en.done_at);
  if !m = max_int then None else Some !m

(* ------------------------------------------------------------------ *)
(* Whole-core checkpointing and sampled-mode support (Core_ckpt,
   Core_func). *)

let snapshot = Core_ckpt.snapshot
let restore = Core_ckpt.restore
let traced (t : t) = t.Core_state.obs <> None
let flushable = Core_ckpt.flushable
let park = Core_ckpt.park
let unpark = Core_ckpt.unpark
let flush_arch = Core_ckpt.flush_arch
let reseed_scope = Core_ckpt.reseed_scope
let counters_snapshot = Core_ckpt.counters_snapshot
let counters_restore = Core_ckpt.counters_restore
let extrapolate = Core_ckpt.extrapolate
let func_step = Core_func.step
