(* Completion phases and branch resolution.

   Every stage returns [true] iff it mutated pipeline state beyond the
   per-cycle stall accounting — the fast-forwarding engine freezes a
   core only when a whole cycle reports no progress, so any state
   change (a drained store, a completed load, a squash, even a
   computed address) must be reported.

   Only [Executing] entries can complete, so every phase here walks
   the ROB's executing queue (oldest first) rather than the window. *)

module Instr = Fscope_isa.Instr
module Scope_unit = Fscope_core.Scope_unit
open Core_state

let step_complete_writes t ~cycle =
  let progress = ref false in
  List.iter
    (fun (en : Store_buffer.entry) ->
      progress := true;
      Mem_port.store t.port ~addr:en.addr ~value:en.value;
      Scope_unit.on_bits_cleared t.scope en.mask)
    (Store_buffer.take_completed t.sb ~cycle);
  Rob.iter_exec t.rob (fun e ->
      match (e.instr, e.state) with
      | Instr.Cas _, Rob.Executing d when d <= cycle ->
        (* The RMW performs atomically at its completion point. *)
        progress := true;
        let old = read_mem t e.addr in
        let success = old = e.data2 in
        if success && in_bounds t e.addr then
          Mem_port.store t.port ~addr:e.addr ~value:e.data;
        e.result <- (if success then 1 else 0);
        Rob.set_state t.rob e Rob.Done;
        Scope_unit.on_bits_cleared t.scope e.scope_mask;
        (match t.obs with
        | Some o ->
          Fscope_obs.Trace.emit o.trace ~core:t.id
            (Fscope_obs.Event.Cas_result { addr = e.addr; success })
        | None -> ())
      | _, (Rob.Waiting | Rob.Executing _ | Rob.Done) -> ());
  !progress

let step_complete_reads t ~cycle =
  let progress = ref false in
  Rob.iter_exec t.rob (fun e ->
      match (e.instr, e.state) with
      | Instr.Load _, Rob.Executing d when d <= cycle ->
        (* data2 = 1 marks a forwarded load whose value was captured at
           issue; otherwise the value is sampled from memory now, at
           the access's completion point. *)
        progress := true;
        if e.data2 = 0 then e.result <- read_mem t e.addr;
        Rob.set_state t.rob e Rob.Done;
        Scope_unit.on_bits_cleared t.scope e.scope_mask
      | _, (Rob.Waiting | Rob.Executing _ | Rob.Done) -> ());
  !progress

(* ------------------------------------------------------------------ *)
(* Branch resolution and squash                                        *)
(* ------------------------------------------------------------------ *)

let release_squashed t (e : Rob.entry) =
  match e.instr with
  | Instr.Load _ | Instr.Cas _ ->
    if e.state <> Rob.Done then Scope_unit.on_bits_cleared t.scope e.scope_mask
  | Instr.Store _ -> Scope_unit.on_bits_cleared t.scope e.scope_mask
  | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Branch _ | Instr.Jump _
  | Instr.Fence _ | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    ()

let squash t (e : Rob.entry) ~actual_target ~cycle =
  let removed = Rob.squash_after t.rob e.seq in
  List.iter (release_squashed t) removed;
  (match e.checkpoint with
  | Some cp -> Array.blit cp 0 t.rename 0 (Array.length cp)
  | None -> assert false);
  Scope_unit.on_branch_mispredict t.scope ~id:e.seq;
  t.fetch_pc <- actual_target;
  t.fetch_resume <- cycle + t.cfg.mispredict_penalty;
  t.fetch_stopped <- false;
  t.counts.mispredicts <- t.counts.mispredicts + 1

let resolve_branch t (e : Rob.entry) ~cycle =
  let taken = e.result <> 0 in
  let target =
    match e.instr with
    | Instr.Branch { target; _ } -> if taken then target else e.pc + 1
    | _ -> assert false
  in
  Branch_pred.update t.bpred ~pc:e.pc ~taken;
  if taken = e.predicted_taken then Scope_unit.on_branch_correct t.scope ~id:e.seq
  else squash t e ~actual_target:target ~cycle

(* Convert due executions to Done and resolve branches, oldest first
   (a misprediction squashes the younger ones before they resolve). *)
let finalize t ~cycle =
  let progress = ref false in
  Rob.iter_exec t.rob (fun e ->
      match (e.instr, e.state) with
      | (Instr.Load _ | Instr.Cas _), _ -> () (* completion phases own these *)
      | Instr.Branch _, Rob.Executing d when d <= cycle ->
        progress := true;
        Rob.set_state t.rob e Rob.Done;
        resolve_branch t e ~cycle
      | _, Rob.Executing d when d <= cycle ->
        progress := true;
        Rob.set_state t.rob e Rob.Done
      | _, (Rob.Waiting | Rob.Executing _ | Rob.Done) -> ());
  !progress
