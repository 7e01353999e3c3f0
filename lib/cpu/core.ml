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
          spin_edges = Array.make (Array.length code) None;
          fence_commits = Array.make (Array.length code) None;
          fence_scoped = Array.make (Array.length code) None;
          fence_stalls = Array.make (Array.length code) None;
          cid_commits = [||];
          cid_stalls = [||];
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
    rename = Array.make Reg.count (-1);
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
let rob (t : t) = t.Core_state.rob

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

(* The earliest of [m] and the completion cycles after [cycle] of the
   executing queue from [slot]. *)
let rec exec_wake_from (t : t) cycle slot m =
  if slot < 0 then m
  else
    let d = (Rob.slot_entry t.rob slot).done_at in
    exec_wake_from t cycle
      (Rob.queue_next t.rob Rob.executing_q slot (Rob.queue_prev t.rob slot))
      (if d > cycle && d < m then d else m)

let rec sb_wake_from (t : t) cycle i m =
  if i >= Store_buffer.count t.sb then m
  else
    let d = Store_buffer.due_at t.sb i in
    sb_wake_from t cycle (i + 1) (if d > cycle && d < m then d else m)

let next_wake (t : t) ~cycle =
  let m =
    if t.halted then max_int
    else
      let m = exec_wake_from t cycle (Rob.queue_first t.rob Rob.executing_q) max_int in
      if (not t.fetch_stopped) && t.fetch_resume > cycle && t.fetch_resume < m then
        t.fetch_resume
      else m
  in
  (* Even a halted core's store buffer keeps draining — those
     completions write memory and gate [drained]. *)
  sb_wake_from t cycle 0 m

(* ------------------------------------------------------------------ *)
(* Whole-core checkpointing and sampled-mode support (Core_ckpt,
   Core_func). *)

let snapshot = Core_ckpt.snapshot
let restore = Core_ckpt.restore
let flushable = Core_ckpt.flushable
let park = Core_ckpt.park
let unpark = Core_ckpt.unpark
let flush_arch = Core_ckpt.flush_arch
let reseed_scope = Core_ckpt.reseed_scope
let counters_snapshot = Core_ckpt.counters_snapshot
let counters_restore = Core_ckpt.counters_restore
let extrapolate = Core_ckpt.extrapolate
let func_step = Core_func.step
