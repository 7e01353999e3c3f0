(* Fetch along the predicted path and dispatch into the ROB. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* Instructions with nothing to execute enter the ROB already [Done];
   so do fences that order nothing in the window (in-window speculation
   checks them at commit, no-fence runs drop them). *)
let dispatch_state t = function
  | Instr.Nop | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Jump _ | Instr.Halt -> Rob.Done
  | Instr.Fence _ when t.cfg.in_window_speculation || t.cfg.nop_fences -> Rob.Done
  | Instr.Fence _ | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Load _ | Instr.Store _
  | Instr.Cas _ | Instr.Branch _ ->
    Rob.Waiting

(* The entry's sources: the registers of [pc], each read through the
   current rename map. *)
let rec add_srcs t (e : Rob.entry) regs i =
  if i < Array.length regs then begin
    let r = regs.(i) in
    Rob.add_src e ~reg:r ~producer:t.rename.(Reg.index r);
    add_srcs t e regs (i + 1)
  end

(* Fetch up to [budget] more instructions into the ROB.  Returns
   whether anything was dispatched. *)
let rec fetch t budget progress =
  if
    budget > 0
    && (not (Rob.is_full t.rob))
    && t.fetch_pc >= 0
    && t.fetch_pc < Array.length t.code
  then begin
    let pc = t.fetch_pc in
    let instr = t.code.(pc) in
    let seq = Rob.next_seq t.rob in
    let state = dispatch_state t instr in
    let e = Rob.fresh t.rob ~seq ~state ~done_at:0 ~addr:(-1) ~pc ~instr in
    add_srcs t e t.src_regs.(pc) 0;
    let halt_fetch =
      match instr with
      | Instr.Nop -> false
      | Instr.Fs_start cid ->
        Scope_unit.on_fs_start t.scope ~cid;
        (* scope micro-ops mutate the scope unit at dispatch — the
           closed-form spin replay cannot reproduce that *)
        Core_spin.note_dirty t;
        false
      | Instr.Fs_end cid ->
        Scope_unit.on_fs_end t.scope ~cid;
        Core_spin.note_dirty t;
        false
      | Instr.Jump target ->
        t.fetch_pc <- target;
        false
      | Instr.Halt ->
        t.fetch_stopped <- true;
        true
      | Instr.Fence kind ->
        e.fence_wait <- Scope_unit.fence_scope t.scope kind;
        e.fence_cid <- Scope_unit.current_cid t.scope;
        if state = Rob.Done then e.fence_issued <- true;
        false
      | Instr.Load { flagged; _ } | Instr.Store { flagged; _ } | Instr.Cas { flagged; _ } ->
        let mask = Scope_unit.decode_mask t.scope ~flagged in
        e.scope_mask <- mask;
        Scope_unit.on_bits_set t.scope mask;
        false
      | Instr.Branch { target; _ } ->
        let predicted = Branch_pred.predict t.bpred ~pc in
        e.predicted_taken <- predicted;
        Rob.save_rename e t.rename;
        Scope_unit.on_branch t.scope ~id:seq;
        t.counts.branches <- t.counts.branches + 1;
        t.fetch_pc <- (if predicted then target else pc + 1);
        false
      | Instr.Li _ | Instr.Alu _ | Instr.Tid _ -> false
    in
    (match instr with
    | Instr.Jump _ | Instr.Branch _ | Instr.Halt -> ()
    | _ -> t.fetch_pc <- pc + 1);
    let d = Instr.dst_index instr in
    if d >= 0 then t.rename.(d) <- seq;
    Rob.dispatch t.rob e;
    if halt_fetch then true else fetch t (budget - 1) true
  end
  else progress

let dispatch t ~cycle =
  cycle >= t.fetch_resume && (not t.fetch_stopped) && fetch t t.cfg.fetch_width false
