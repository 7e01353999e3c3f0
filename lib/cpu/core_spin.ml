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

let note_dirty t =
  let pr = t.spin_probe in
  if pr.pr_enabled then pr.pr_dirty <- true

let rec footprint_has pr addr i =
  i < pr.pr_footprint_n && (pr.pr_footprint.(i) = addr || footprint_has pr addr (i + 1))

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
      if not (footprint_has pr addr 0) then
        if pr.pr_footprint_n >= footprint_cap then pr.pr_dirty <- true
        else begin
          pr.pr_footprint.(pr.pr_footprint_n) <- addr;
          pr.pr_footprint_n <- pr.pr_footprint_n + 1
        end
    | Fscope_obs.Event.L2_hit | Fscope_obs.Event.L2_miss -> pr.pr_dirty <- true

let note_boundary t =
  let pr = t.spin_probe in
  if pr.pr_enabled then pr.pr_boundary <- true

(* ------------------------------------------------------------------ *)
(* Counter vectors: the per-period deltas replayed in closed form. *)

let delta prev now = Array.init (Array.length now) (fun i -> now.(i) - prev.(i))

(* ------------------------------------------------------------------ *)
(* The relativized snapshot. *)

(* A producer seq that already left the ROB is behaviorally identical
   to the architectural file (src_get falls back to it), so dead seqs
   relativize to the -1 sentinel; otherwise stale pointers from before
   the loop would drift against [base] and block arming. *)
let rel_producer t base s = if s >= 0 && Rob.contains t.rob s then base - s else -1

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

(* Write [v] at position [i] of the snapshot being taken, growing the
   spare buffer when full; the next position. *)
let put pr i v =
  if i >= Array.length pr.pr_next then begin
    let a = Array.make (Int.max 1024 (2 * i)) 0 in
    Array.blit pr.pr_next 0 a 0 i;
    pr.pr_next <- a
  end;
  pr.pr_next.(i) <- v;
  i + 1

let state_code = function
  | Rob.Waiting -> 0
  | Rob.Executing -> 1
  | Rob.Done -> 2

let level_code = function
  | Rob.Unserved -> 0
  | Rob.L1 -> 1
  | Rob.L2 -> 2
  | Rob.Main -> 3

let rec put_srcs t pr base (e : Rob.entry) k i =
  if k >= e.n_srcs then i
  else
    let i = put pr i (rel_producer t base (Rob.src_producer e k)) in
    put_srcs t pr base e (k + 1) (put pr i (Reg.index (Rob.src_reg e k)))

let rec put_rename t pr base (e : Rob.entry) r i =
  if r >= Reg.count then i
  else
    put_rename t pr base e (r + 1) (put pr i (rel_producer t base (Rob.rename_producer e r)))

(* One ROB entry: its seq relative to the ROB's next seq [base], its pc
   (which fixes its instruction), its sources, its state with the
   completion cycle relative to the snapshot cycle, its data fields and
   its rename checkpoint.  [-1] if the entry rules the snapshot out. *)
let put_entry t pr ~base ~cycle (e : Rob.entry) i =
  if not (snapshot_ok_instr e.instr) then -1
    (* at the end of phase 3 every in-flight completion time is in the
       future; a stale one would not survive shifting *)
  else if e.state = Rob.Executing && e.done_at <= cycle then -1
  else begin
    let i = put pr i (base - e.seq) in
    let i = put pr i e.pc in
    let i = put pr i e.n_srcs in
    let i = put_srcs t pr base e 0 i in
    let i = put pr i (state_code e.state) in
    let i = put pr i (if e.state = Rob.Executing then e.done_at - cycle else 0) in
    let i = put pr i e.result in
    let i = put pr i e.addr in
    let i = put pr i e.data in
    let i = put pr i e.data2 in
    let i = put pr i e.scope_mask in
    let i = put pr i (level_code e.mem_level) in
    let i = put pr i (Bool.to_int e.predicted_taken) in
    let i = put pr i (Bool.to_int e.has_cp) in
    if e.has_cp then put_rename t pr base e 0 i else i
  end

let rec put_rob t pr ~base ~cycle s i =
  if s >= Rob.next_seq t.rob || i < 0 then i
  else put_rob t pr ~base ~cycle (s + 1) (put_entry t pr ~base ~cycle (Rob.get t.rob s) i)

let rec put_array pr get x n k i =
  if k >= n then i else put_array pr get x n (k + 1) (put pr i (get x k))

let rec put_fingerprint t pr ~base n k i =
  if k >= n || i < 0 then i
  else
    let f = Scope_unit.fingerprint t.scope ~base k in
    if f = min_int then -1 else put_fingerprint t pr ~base n (k + 1) (put pr i f)

let arf_at t k = t.arf.(k)

let rec put_rename_map t pr base r i =
  if r >= Reg.count then i
  else put_rename_map t pr base (r + 1) (put pr i (rel_producer t base t.rename.(r)))

(* Take the snapshot into [pr_next]: its length, or -1 if the state
   cannot be snapshotted (a halted core, a non-empty store buffer, an
   entry [put_entry] refuses, or a buffered scope micro-op).  The
   layout is fetch pc, stopped flag, pending fetch resume relative to
   [cycle] (else [min_int]), the spin pc, the ARF, the relativized
   rename map, the ROB entry count and entries, the predictor table,
   the FSB columns' outstanding counts and the event FIFO's
   fingerprint — every variable-length part behind its length, so two
   snapshots are equal exactly when the states they encode are. *)
let build_snapshot t ~cycle =
  let pr = t.spin_probe in
  if t.halted || not (Store_buffer.is_empty t.sb) then -1
  else begin
    let base = Rob.next_seq t.rob in
    let i = put pr 0 t.fetch_pc in
    let i = put pr i (Bool.to_int t.fetch_stopped) in
    let i = put pr i (if t.fetch_resume > cycle then t.fetch_resume - cycle else min_int) in
    let i = put pr i t.spin_last_pc in
    let i = put_array pr arf_at t Reg.count 0 i in
    let i = put_rename_map t pr base 0 i in
    let i = put pr i (Rob.count t.rob) in
    let i = put_rob t pr ~base ~cycle (Rob.head_seq t.rob) i in
    if i < 0 then -1
    else begin
      let i = put pr i (Branch_pred.entries t.bpred) in
      let i = put_array pr Branch_pred.counter t.bpred (Branch_pred.entries t.bpred) 0 i in
      let cols = (Scope_unit.config t.scope).Scope_unit.fsb_entries in
      let i = put pr i cols in
      let i = put_array pr Scope_unit.outstanding t.scope cols 0 i in
      let n = Scope_unit.fingerprint_length t.scope in
      put_fingerprint t pr ~base n 0 (put pr i n)
    end
  end

(* ------------------------------------------------------------------ *)
(* Boundary processing. *)

let rec same_prefix (a : int array) (b : int array) n i = i >= n || (a.(i) = b.(i) && same_prefix a b n (i + 1))

(* The snapshot just taken (of length [len]) equals the previous one. *)
let same_snapshot pr len = len = pr.pr_snap_len && same_prefix pr.pr_snap pr.pr_next len 0

(* Keep the snapshot just taken as the previous one (or none, for
   -1); the old buffer becomes the spare. *)
let keep_snapshot pr len =
  let old = pr.pr_snap in
  pr.pr_snap <- pr.pr_next;
  pr.pr_next <- old;
  pr.pr_snap_len <- len

let footprint_list pr =
  let rec go k acc = if k >= pr.pr_footprint_n then acc else go (k + 1) (pr.pr_footprint.(k) :: acc) in
  go 0 []

let on_boundary t ~cycle =
  let pr = t.spin_probe in
  let clean =
    (not pr.pr_dirty)
    && pr.pr_last_cycle >= 0
    && cycle > pr.pr_last_cycle
    && Store_buffer.is_empty t.sb
  in
  let chained = clean && pr.pr_arf_valid && same_prefix pr.pr_arf t.arf Reg.count 0 in
  if not chained then begin
    (* restart the chain at this boundary *)
    pr.pr_snap_len <- -1;
    Array.blit t.arf 0 pr.pr_arf 0 Reg.count;
    pr.pr_arf_valid <- true
  end
  else begin
    let len = build_snapshot t ~cycle in
    if pr.pr_snap_len >= 0 && len >= 0 && same_snapshot pr len then begin
      pr.pr_armed <-
        Some
          {
            armed_cycle = cycle;
            period = cycle - pr.pr_last_cycle;
            d_counts = delta pr.pr_counts (counts_to_array t.counts);
            d_cpi = delta pr.pr_cpi (Cpi.to_array t.cpi);
            loads_per_period = pr.pr_loads;
            footprint = footprint_list pr;
          }
    end
    else keep_snapshot pr len
  end;
  (* start accumulating the next period *)
  pr.pr_last_cycle <- cycle;
  pr.pr_dirty <- false;
  pr.pr_footprint_n <- 0;
  pr.pr_loads <- 0;
  counts_blit t.counts pr.pr_counts;
  Cpi.blit t.cpi pr.pr_cpi

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
  pr.pr_footprint_n <- 0;
  pr.pr_loads <- 0;
  pr.pr_arf_valid <- false;
  pr.pr_snap_len <- -1;
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
