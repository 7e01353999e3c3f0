(* Spin fast-forward: the stability probe and the closed-form replay.

   A *boundary* is the end of any cycle in which a spinning backward
   edge committed (Core_commit raises [pr_boundary]; Core.step_pipeline
   calls [on_boundary] at the end of the cycle).  Arming takes three
   consecutive clean boundaries: the first anchors the chain, cheap ARF
   equality gates the second and third, and a full relativized snapshot
   built at the second must compare equal to one built at the third.

   Why one equal pair suffices: between boundaries the core's evolution
   is deterministic and shift-invariant — its only external inputs are
   the values its loads observe and the latencies the memory port
   returns, and a clean period pins both (every load hits the core's
   own L1 with unchanged data).  If the full state at boundary [n]
   equals the state at boundary [n-1] shifted by the period, the state
   at [n+1] equals the state at [n] shifted likewise, forever — until a
   cross-core store (or an invalidation of a footprint line) changes
   what the loop observes.  The engine watches exactly for that. *)

open Core_state
module Cpi = Fscope_obs.Cpi

(* ------------------------------------------------------------------ *)
(* Probe feeding: called from the pipeline stages.  All are gated on
   [pr_enabled] so the naive reference loop pays one branch at most. *)

let footprint_cap = 32

let note_dirty t =
  let pr = t.spin_probe in
  if pr.pr_enabled then pr.pr_dirty <- true

(* A load issued to the memory port.  Only own-L1 hits are compatible
   with sleeping (their values and latencies cannot change without a
   coherence action the engine can observe); anything else — a miss, a
   store-buffer forward, an out-of-bounds access — disqualifies the
   period. *)
let note_load t ~addr ~(level : Fscope_obs.Event.mem_outcome) =
  let pr = t.spin_probe in
  if pr.pr_enabled then
    match level with
    | Fscope_obs.Event.L1_hit ->
      pr.pr_loads <- pr.pr_loads + 1;
      if not (List.mem addr pr.pr_footprint) then
        if List.length pr.pr_footprint >= footprint_cap then pr.pr_dirty <- true
        else pr.pr_footprint <- addr :: pr.pr_footprint
    | _ -> pr.pr_dirty <- true

let note_boundary t =
  let pr = t.spin_probe in
  if pr.pr_enabled then pr.pr_boundary <- true

(* ------------------------------------------------------------------ *)
(* Counter vectors: the per-period deltas replayed in closed form. *)

let delta prev now = Array.init (Array.length now) (fun i -> now.(i) - prev.(i))

(* ------------------------------------------------------------------ *)
(* The relativized snapshot. *)

(* A producer seq that already left the ROB is behaviorally identical
   to [Arch] (src_get falls back to the architectural file), so dead
   seqs relativize to the Arch sentinel; otherwise stale pointers from
   before the loop would drift against [base] and block arming. *)
let rel_producer t base = function
  | Rob.Arch -> -1
  | Rob.Rob s -> if Rob.contains t.rob s then base - s else -1

(* In-flight stores, CAS, fences, scope markers and halts all have
   effects the closed-form replay cannot reproduce — reject. *)
let snapshot_ok_instr (i : Fscope_isa.Instr.t) =
  match i with
  | Instr.Store _ | Instr.Cas _ | Instr.Fence _ | Instr.Fs_start _ | Instr.Fs_end _
  | Instr.Halt ->
    false
  | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Load _ | Instr.Branch _
  | Instr.Jump _ ->
    true

let build_snapshot t ~cycle =
  if t.halted || not (Store_buffer.is_empty t.sb) then None
  else begin
    let base = Rob.next_seq t.rob in
    let ok = ref true in
    let entries = ref [] in
    Rob.iter t.rob (fun e ->
        if not (snapshot_ok_instr e.instr) then ok := false;
        let state =
          match e.state with
          | Rob.Waiting -> (0, 0)
          | Rob.Executing d ->
            (* at the end of phase 3 every in-flight completion time is
               in the future; a stale one would not survive shifting *)
            if d <= cycle then begin
              ok := false;
              (1, 0)
            end
            else (1, d - cycle)
          | Rob.Done -> (2, 0)
        in
        entries :=
          {
            s_seq = base - e.seq;
            s_pc = e.pc;
            s_instr = e.instr;
            s_srcs =
              Array.map
                (fun (s : Rob.src) -> (rel_producer t base s.producer, Reg.index s.reg))
                e.srcs;
            s_state = state;
            s_result = e.result;
            s_addr = e.addr;
            s_data = e.data;
            s_data2 = e.data2;
            s_mask = e.scope_mask;
            s_mem_level = e.mem_level;
            s_predicted = e.predicted_taken;
            s_checkpoint = Option.map (Array.map (rel_producer t base)) e.checkpoint;
          }
          :: !entries);
    match Scope_unit.spin_fingerprint t.scope ~base with
    | None -> None
    | Some fp ->
      if not !ok then None
      else begin
        let cols = (Scope_unit.config t.scope).Scope_unit.fsb_entries in
        Some
          {
            sn_pc = t.fetch_pc;
            sn_stopped = t.fetch_stopped;
            sn_resume = (if t.fetch_resume > cycle then t.fetch_resume - cycle else min_int);
            sn_arf = Array.copy t.arf;
            sn_rename = Array.map (rel_producer t base) t.rename;
            sn_rob = Array.of_list (List.rev !entries);
            sn_bpred = Branch_pred.snapshot t.bpred;
            sn_outstanding = Array.init cols (Scope_unit.outstanding t.scope);
            sn_scope = fp;
            sn_spin_pc = t.spin_last_pc;
          }
      end
  end

(* ------------------------------------------------------------------ *)
(* Boundary processing. *)

let arf_equal (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  Array.length b = n && go 0

let on_boundary t ~cycle =
  let pr = t.spin_probe in
  let clean =
    (not pr.pr_dirty)
    && pr.pr_last_cycle >= 0
    && cycle > pr.pr_last_cycle
    && Store_buffer.is_empty t.sb
  in
  let chained =
    clean && match pr.pr_arf with Some a -> arf_equal a t.arf | None -> false
  in
  if not chained then begin
    (* restart the chain at this boundary *)
    pr.pr_snap <- None;
    match pr.pr_arf with
    | Some a when Array.length a = Array.length t.arf ->
      Array.blit t.arf 0 a 0 (Array.length a)
    | _ -> pr.pr_arf <- Some (Array.copy t.arf)
  end
  else begin
    match pr.pr_snap with
    | None -> pr.pr_snap <- build_snapshot t ~cycle
    | Some prev -> (
      match build_snapshot t ~cycle with
      | Some s when s = prev ->
        pr.pr_armed <-
          Some
            {
              armed_cycle = cycle;
              period = cycle - pr.pr_last_cycle;
              d_counts = delta pr.pr_counts (counts_to_array t.counts);
              d_cpi = delta pr.pr_cpi (Cpi.to_array t.cpi);
              loads_per_period = pr.pr_loads;
              footprint = pr.pr_footprint;
            }
      | snap -> pr.pr_snap <- snap)
  end;
  (* start accumulating the next period *)
  pr.pr_last_cycle <- cycle;
  pr.pr_dirty <- false;
  pr.pr_footprint <- [];
  pr.pr_loads <- 0;
  pr.pr_counts <- counts_to_array t.counts;
  pr.pr_cpi <- Cpi.to_array t.cpi

(* ------------------------------------------------------------------ *)
(* Engine interface. *)

let poll t ~cycle =
  let pr = t.spin_probe in
  match pr.pr_armed with
  | Some st ->
    pr.pr_armed <- None;
    if st.armed_cycle = cycle then Some st else None
  | None -> None

let cancel t =
  let pr = t.spin_probe in
  pr.pr_boundary <- false;
  pr.pr_last_cycle <- -1;
  pr.pr_dirty <- false;
  pr.pr_footprint <- [];
  pr.pr_loads <- 0;
  pr.pr_arf <- None;
  pr.pr_snap <- None;
  pr.pr_armed <- None

(* Account [k] skipped periods in closed form: every commit counter and
   CPI leaf advances by [k] times its per-period delta, and every
   cycle-valued piece of live state shifts by [k * period] so the state
   equals what naive stepping would have produced at
   [armed_cycle + k * period]. *)
let replay t ~(stable : stable) ~k =
  if k > 0 then begin
    let shift = k * stable.period in
    counts_restore t.counts
      (Array.mapi (fun i v -> v + (k * stable.d_counts.(i))) (counts_to_array t.counts));
    List.iteri (fun i leaf -> Cpi.charge_n t.cpi leaf ~times:(k * stable.d_cpi.(i))) Cpi.leaves;
    Rob.shift_executing t.rob ~by:shift;
    if t.fetch_resume > stable.armed_cycle then t.fetch_resume <- t.fetch_resume + shift
  end
