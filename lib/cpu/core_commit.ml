(* In-order commit, plus the cycle-accounting that charges every
   active cycle to exactly one CPI-stack leaf.  The fast-forwarding
   engine replays the same classification in closed form over skipped
   spans (see [account_stall_span] at the bottom). *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Cpi = Fscope_obs.Cpi
module Metrics = Fscope_obs.Metrics
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* Does the fence wait on an S-Fence scope mask (rather than
   globally)? *)
let scoped (e : Rob.entry) = e.fence_wait >= 0

(* May the head fence [e] retire?  Without in-window speculation it
   already waited at issue.  With it, the fence retires when the
   in-scope part of the store buffer has drained (older ROB entries are
   gone by definition at the commit head); flavours that do not order
   prior stores retire immediately. *)
let fence_may_retire t (e : Rob.entry) =
  if not t.cfg.in_window_speculation then e.fence_issued
  else
    t.cfg.nop_fences
    ||
    let k = match e.instr with Instr.Fence k -> k | _ -> assert false in
    (not k.Fscope_isa.Fence_kind.wait_stores)
    ||
    let w = e.fence_wait in
    assert (w <> Rob.wait_none);
    if w = Scope_unit.wait_global then Store_buffer.is_empty t.sb
    else not (Store_buffer.mask_overlaps t.sb w)

(* Register the metric [name] on a traced core's first use of the
   site cached at [cache.(i)]. *)
let new_counter o cache i name =
  let c = Metrics.counter (Fscope_obs.Trace.metrics o.trace) name in
  cache.(i) <- Some c;
  c

let new_histogram o cache i name =
  let h = Metrics.histogram (Fscope_obs.Trace.metrics o.trace) name in
  cache.(i) <- Some h;
  h

(* Spin detection over the commit stream: a backward control transfer
   that repeats at the same PC with no store, CAS or fence committed in
   between is a read-only wait loop — the ROADMAP's spin-candidate.
   Commit streams are identical between the two engine loops, so this
   is deterministic and engine-independent. *)
let spin_backward_edge t pc =
  let spinning = t.spin_last_pc = pc && not t.spin_dirty in
  t.spin_mode <- spinning;
  (* a committed spinning backward edge ends a loop iteration — mark
     the cycle as a boundary for the fast-forward stability probe *)
  if spinning then Core_spin.note_boundary t;
  (match t.obs with
  | Some o when spinning ->
    Metrics.incr
      (match o.spin_edges.(pc) with
      | Some c -> c
      | None -> new_counter o o.spin_edges pc (Printf.sprintf "core%d/spin/pc%d" t.id pc))
  | Some _ | None -> ());
  t.spin_last_pc <- pc;
  t.spin_dirty <- false

let spin_note t (e : Rob.entry) =
  match e.instr with
  | Instr.Store _ | Instr.Cas _ | Instr.Fence _ ->
    t.spin_dirty <- true;
    t.spin_mode <- false;
    Core_spin.note_dirty t
  | Instr.Jump target ->
    if target <= e.pc then spin_backward_edge t e.pc else t.spin_mode <- false
  | Instr.Branch { target; _ } ->
    if e.result <> 0 then
      if target <= e.pc then spin_backward_edge t e.pc else t.spin_mode <- false
  | _ -> ()

let commit_effects t (e : Rob.entry) =
  let d = Instr.dst_index e.instr in
  if d >= 0 then t.arf.(d) <- e.result;
  t.counts.committed <- t.counts.committed + 1;
  spin_note t e;
  match e.instr with
  | Instr.Load _ ->
    t.counts.loads <- t.counts.loads + 1;
    t.counts.committed_mem <- t.counts.committed_mem + 1
  | Instr.Store _ ->
    t.counts.stores <- t.counts.stores + 1;
    t.counts.committed_mem <- t.counts.committed_mem + 1
  | Instr.Cas _ ->
    t.counts.cas_ops <- t.counts.cas_ops + 1;
    t.counts.committed_mem <- t.counts.committed_mem + 1
  | Instr.Fence _ -> t.counts.committed_fences <- t.counts.committed_fences + 1
  | Instr.Fs_start cid -> t.arch_nest <- cid :: t.arch_nest
  | Instr.Fs_end _ -> (
    match t.arch_nest with
    | _ :: rest -> t.arch_nest <- rest
    | [] -> () (* unmatched fs_end: legal program, nothing to pop *))
  | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Branch _ | Instr.Jump _
  | Instr.Halt ->
    ()

(* A stalled head fence has nothing older left in the ROB, so only the
   in-scope part of the store buffer can hold it; the leaf records
   whether it waits on an S-Fence scope mask or globally.  [times] lets
   the engine charge a whole frozen span at once. *)
let charge_fence_stall t (e : Rob.entry) ~times =
  if scoped e then Cpi.charge_n t.cpi (Cpi.Fence_wait Cpi.Scoped) ~times
  else Cpi.charge_n t.cpi (Cpi.Fence_wait Cpi.Unscoped) ~times

(* Per-static-fence-site and per-scope attribution, on traced runs
   only: a commit counter per (core, fence PC), a scoped-commit
   counter, and a stall-episode histogram, plus the same keyed by the
   fence's class id.  Registered by name on first use (see
   [Core_state.obs]) — static sites are enumerated by the profiler
   from the program image, so sites that never commit still appear
   (with zeros) in its tables.  [stalled] is the stall episode's
   length, or -1 when the fence retired without stalling. *)
let fence_site t pc what = Printf.sprintf "core%d/fence_pc%d/%s" t.id pc what

let note_fence_commit t (e : Rob.entry) ~stalled =
  match t.obs with
  | None -> ()
  | Some o ->
    let pc = e.pc in
    Metrics.incr
      (match o.fence_commits.(pc) with
      | Some c -> c
      | None -> new_counter o o.fence_commits pc (fence_site t pc "commits"));
    if scoped e then
      Metrics.incr
        (match o.fence_scoped.(pc) with
        | Some c -> c
        | None -> new_counter o o.fence_scoped pc (fence_site t pc "scoped_commits"));
    if stalled >= 0 then
      Metrics.observe
        (match o.fence_stalls.(pc) with
        | Some h -> h
        | None -> new_histogram o o.fence_stalls pc (fence_site t pc "stall_cycles"))
        stalled;
    let cid = e.fence_cid in
    if cid >= 0 then begin
      if cid >= Array.length o.cid_commits then begin
        let grow a = Array.append a (Array.make (cid + 1 - Array.length a) None) in
        o.cid_commits <- grow o.cid_commits;
        o.cid_stalls <- grow o.cid_stalls
      end;
      Metrics.incr
        (match o.cid_commits.(cid) with
        | Some c -> c
        | None -> new_counter o o.cid_commits cid (Printf.sprintf "cid%d/commits" cid));
      if stalled >= 0 then
        Metrics.observe
          (match o.cid_stalls.(cid) with
          | Some h -> h
          | None ->
            new_histogram o o.cid_stalls cid (Printf.sprintf "cid%d/stall_cycles" cid))
          stalled
    end

let commit t ~cycle =
  let progress = ref false in
  let budget = ref t.cfg.commit_width in
  let blocked = ref false in
  while (not !blocked) && !budget > 0 && not t.halted do
    if Rob.is_empty t.rob then blocked := true
    else
      let e = Rob.head t.rob in
      match e.instr with
      | Instr.Halt ->
        ignore (Rob.pop_head t.rob);
        commit_effects t e;
        t.halted <- true;
        progress := true
      | Instr.Store _ ->
        if e.state <> Rob.Done then blocked := true
        else if Store_buffer.is_full t.sb then begin
          Cpi.charge t.cpi Cpi.Sb_full;
          t.cycle_charged <- true;
          blocked := true
        end
        else begin
          if not (in_bounds t e.addr) then
            invalid_arg
              (Printf.sprintf "core %d: store to out-of-bounds address %d (pc %d)" t.id
                 e.addr e.pc);
          let completes =
            Mem_port.issue t.port ~core:t.id Mem_port.Write ~addr:e.addr ~now:cycle
          in
          (* Same-address stores must become visible in program order
             (per-location coherence), so a later store may not
             overtake an in-flight one to the same address. *)
          let floor = Store_buffer.last_due_to t.sb ~addr:e.addr in
          Store_buffer.push t.sb ~addr:e.addr ~value:e.data ~mask:e.scope_mask
            ~done_at:(Int.max completes (floor + 1));
          ignore (Rob.pop_head t.rob);
          commit_effects t e;
          progress := true;
          decr budget
        end
      | Instr.Fence _ ->
        if fence_may_retire t e then begin
          let stalled = ref (-1) in
          (match t.obs with
          | Some o when o.stall_begin >= 0 ->
            let cycles = cycle - o.stall_begin in
            stalled := cycles;
            if Fscope_obs.Trace.records o.trace then
              Fscope_obs.Trace.fence_stall_end o.trace ~core:t.id ~pc:e.pc ~cycles;
            Metrics.observe o.stall_hist cycles;
            o.stall_begin <- -1
          | Some _ | None -> ());
          note_fence_commit t e ~stalled:!stalled;
          ignore (Rob.pop_head t.rob);
          commit_effects t e;
          progress := true;
          decr budget
        end
        else begin
          charge_fence_stall t e ~times:1;
          t.cycle_charged <- true;
          (match t.obs with
          | Some o when o.stall_begin < 0 ->
            o.stall_begin <- cycle;
            if Fscope_obs.Trace.records o.trace then
              Fscope_obs.Trace.fence_stall_begin o.trace ~core:t.id ~pc:e.pc
                ~global:(not (scoped e))
          | Some _ | None -> ());
          blocked := true
        end
      | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Load _ | Instr.Cas _
      | Instr.Branch _ | Instr.Jump _ | Instr.Fs_start _ | Instr.Fs_end _ ->
        if e.state = Rob.Done then begin
          ignore (Rob.pop_head t.rob);
          commit_effects t e;
          progress := true;
          decr budget
        end
        else blocked := true
  done;
  !progress

(* The leaf for a cycle on which nothing committed and commit charged
   nothing (so the head is not a blocked fence or a store facing a
   full store buffer — those were charged in the commit loop).  A head
   load/CAS in flight is charged to the memory level serving it;
   everything else waiting at the head (operand dependences,
   unresolved branches, forwarded loads completing next cycle) is an
   execution dependence. *)
let classify_waiting_head (e : Rob.entry) =
  match e.instr with
  | (Instr.Load _ | Instr.Cas _) when e.state <> Rob.Done -> (
    match e.mem_level with
    | Rob.L1 -> Cpi.Mem_l1
    | Rob.L2 -> Cpi.Mem_l2
    | Rob.Main -> Cpi.Mem_main
    | Rob.Unserved -> Cpi.Exec_dep)
  | _ -> Cpi.Exec_dep

let classify_blocked t ~cycle =
  if Rob.is_empty t.rob then
    (* An empty ROB while the front end waits out a mispredict penalty
       is the flush shadow; empty with nothing pending is a starved
       front end (e.g. the tail of the program). *)
    if (not t.fetch_stopped) && t.fetch_resume > cycle then Cpi.Branch_flush
    else Cpi.Frontend_empty
  else classify_waiting_head (Rob.head t.rob)

(* Replay the per-cycle accounting of the [n] pure-stall cycles
   following [cycle] in O(1).

   Preconditions (established by the engine): the core reported no
   progress at [cycle], so until its next wake-up every cycle is
   identical — the pipeline steps would only (a) bump the activity
   counters, (b) re-observe the unchanged occupancy gauges, and
   (c) charge the same CPI leaf.  Exactly that, [n] times, is what
   this function applies.  The one cycle-dependent classification —
   an empty ROB flips from [Branch_flush] to [Frontend_empty] once
   [fetch_resume] passes — is replayed in closed form. *)
let account_stall_span t ~cycle ~cycles:n =
  if n > 0 && not t.halted then begin
    t.counts.active_cycles <- t.counts.active_cycles + n;
    t.counts.rob_occupancy_sum <- t.counts.rob_occupancy_sum + (n * Rob.count t.rob);
    (match t.obs with
    | Some o ->
      Metrics.gauge_observe_n o.rob_gauge (Rob.count t.rob) ~times:n;
      Metrics.gauge_observe_n o.sb_gauge (Store_buffer.count t.sb) ~times:n
    | None -> ());
    if not (Rob.is_empty t.rob) then begin
      let e = Rob.head t.rob in
      match e.instr with
      | Instr.Store _ when e.state = Rob.Done && Store_buffer.is_full t.sb ->
        Cpi.charge_n t.cpi Cpi.Sb_full ~times:n
      | Instr.Fence _ when not (fence_may_retire t e) -> charge_fence_stall t e ~times:n
      | _ -> Cpi.charge_n t.cpi (classify_waiting_head e) ~times:n
    end
    else begin
      (* Cycles [cycle+1 .. cycle+n]: Branch_flush while the cycle is
         still below [fetch_resume], Frontend_empty after. *)
      let flush =
        if t.fetch_stopped then 0 else Int.max 0 (Int.min n (t.fetch_resume - (cycle + 1)))
      in
      Cpi.charge_n t.cpi Cpi.Branch_flush ~times:flush;
      Cpi.charge_n t.cpi Cpi.Frontend_empty ~times:(n - flush)
    end
  end
