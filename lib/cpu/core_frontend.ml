(* Fetch along the predicted path and dispatch into the ROB. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* Positional source registers, matching how execution consumes them. *)
let explicit_srcs = function
  | Instr.Nop | Instr.Li _ | Instr.Tid _ | Instr.Jump _ | Instr.Fence _
  | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    []
  | Instr.Alu (_, _, a, Instr.Reg b) -> [ a; b ]
  | Instr.Alu (_, _, a, Instr.Imm _) -> [ a ]
  | Instr.Load { base; _ } -> [ base ]
  | Instr.Store { src; base; _ } -> [ src; base ]
  | Instr.Cas { base; expected; desired; _ } -> [ base; expected; desired ]
  | Instr.Branch { src; _ } -> [ src ]

(* Instructions with nothing to execute enter the ROB already [Done];
   so do fences that order nothing in the window (in-window speculation
   checks them at commit, no-fence runs drop them). *)
let dispatch_state t = function
  | Instr.Nop | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Jump _ | Instr.Halt -> Rob.Done
  | Instr.Fence _ when t.cfg.in_window_speculation || t.cfg.nop_fences -> Rob.Done
  | Instr.Fence _ | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Load _ | Instr.Store _
  | Instr.Cas _ | Instr.Branch _ ->
    Rob.Waiting

let dispatch t ~cycle =
  let progress = ref false in
  if cycle >= t.fetch_resume && not t.fetch_stopped then begin
    let budget = ref t.cfg.fetch_width in
    let halt_fetch = ref false in
    while
      (not !halt_fetch)
      && !budget > 0
      && (not (Rob.is_full t.rob))
      && t.fetch_pc >= 0
      && t.fetch_pc < Array.length t.code
    do
      progress := true;
      let pc = t.fetch_pc in
      let instr = t.code.(pc) in
      let seq = Rob.next_seq t.rob in
      let srcs =
        Array.of_list
          (List.map
             (fun r -> { Rob.producer = t.rename.(Reg.index r); reg = r })
             (explicit_srcs instr))
      in
      let e = Rob.make_entry ~state:(dispatch_state t instr) ~seq ~pc ~instr ~srcs in
      (match instr with
      | Instr.Nop -> ()
      | Instr.Fs_start cid ->
        Scope_unit.on_fs_start t.scope ~cid;
        (* scope micro-ops mutate the scope unit at dispatch — the
           closed-form spin replay cannot reproduce that *)
        Core_spin.note_dirty t
      | Instr.Fs_end cid ->
        Scope_unit.on_fs_end t.scope ~cid;
        Core_spin.note_dirty t
      | Instr.Jump target -> t.fetch_pc <- target
      | Instr.Halt ->
        t.fetch_stopped <- true;
        halt_fetch := true
      | Instr.Fence kind ->
        e.fence_wait <- Some (Scope_unit.fence_scope t.scope kind);
        (match Scope_unit.current_cid t.scope with
        | Some cid -> e.fence_cid <- cid
        | None -> ());
        if e.state = Rob.Done then e.fence_issued <- true
      | Instr.Load { flagged; _ } | Instr.Store { flagged; _ } | Instr.Cas { flagged; _ }
        ->
        let mask = Scope_unit.decode_mask t.scope ~flagged in
        e.scope_mask <- mask;
        Scope_unit.on_bits_set t.scope mask
      | Instr.Branch { target; _ } ->
        let predicted = Branch_pred.predict t.bpred ~pc in
        e.predicted_taken <- predicted;
        e.checkpoint <- Some (Array.copy t.rename);
        Scope_unit.on_branch t.scope ~id:seq;
        t.counts.branches <- t.counts.branches + 1;
        t.fetch_pc <- (if predicted then target else pc + 1)
      | Instr.Li _ | Instr.Alu _ | Instr.Tid _ -> ());
      (match instr with
      | Instr.Jump _ | Instr.Branch _ | Instr.Halt -> ()
      | _ -> t.fetch_pc <- pc + 1);
      (match Instr.writes_reg instr with
      | Some r -> t.rename.(Reg.index r) <- Rob.Rob seq
      | None -> ());
      Rob.dispatch t.rob e;
      decr budget
    done
  end;
  !progress
