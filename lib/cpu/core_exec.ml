(* Completion phases and branch resolution.

   Every stage returns [true] iff it mutated pipeline state beyond the
   per-cycle stall accounting — the fast-forwarding engine freezes a
   core only when a whole cycle reports no progress, so any state
   change (a drained store, a completed load, a squash, even a
   computed address) must be reported.

   Only [Executing] entries can complete, so every phase here walks
   the ROB's executing queue (oldest first) rather than the window.
   The two completion phases skip the walk in a cycle before the
   ROB's completion bound for their kind ({!Rob.load_due},
   {!Rob.cas_due}) and leave the bound exact when they walk.
   [finalize] is not gated: most of its walks complete something. *)

module Instr = Fscope_isa.Instr
module Scope_unit = Fscope_core.Scope_unit
open Core_state

(* A drained store-buffer entry reaches memory. *)
let write_drained t ~addr ~value ~mask =
  Mem_port.store t.port ~addr ~value;
  Scope_unit.on_bits_cleared t.scope mask

(* The RMW performs atomically at its completion point. *)
let complete_cas t (e : Rob.entry) =
  let old = read_mem t e.addr in
  let success = old = e.data2 in
  if success && in_bounds t e.addr then Mem_port.store t.port ~addr:e.addr ~value:e.data;
  e.result <- (if success then 1 else 0);
  Rob.set_state t.rob e Rob.Done;
  Scope_unit.on_bits_cleared t.scope e.scope_mask;
  match t.obs with
  | Some o when Fscope_obs.Trace.records o.trace ->
    Fscope_obs.Trace.cas_result o.trace ~core:t.id ~addr:e.addr ~success
  | Some _ | None -> ()

(* [next] is the earliest [done_at] of the CAS passed that stay
   [Executing]. *)
let rec complete_cas_from t cycle slot progress next =
  if slot < 0 then begin
    Rob.set_cas_due t.rob next;
    progress
  end
  else begin
    let e = Rob.slot_entry t.rob slot and prev = Rob.queue_prev t.rob slot in
    match e.instr with
    | Instr.Cas _ when e.done_at <= cycle ->
      complete_cas t e;
      complete_cas_from t cycle (Rob.queue_next t.rob Rob.executing_q slot prev) true next
    | Instr.Cas _ ->
      complete_cas_from t cycle
        (Rob.queue_next t.rob Rob.executing_q slot prev)
        progress (Int.min next e.done_at)
    | _ ->
      complete_cas_from t cycle
        (Rob.queue_next t.rob Rob.executing_q slot prev)
        progress next
  end

let step_complete_writes t ~cycle =
  let drained = Store_buffer.drain_due t.sb ~cycle write_drained t in
  if cycle < Rob.cas_due t.rob then drained
  else complete_cas_from t cycle (Rob.queue_first t.rob Rob.executing_q) drained max_int

(* data2 = 1 marks a forwarded load whose value was captured at issue;
   otherwise the value is sampled from memory now, at the access's
   completion point. *)
let rec complete_reads_from t cycle slot progress next =
  if slot < 0 then begin
    Rob.set_load_due t.rob next;
    progress
  end
  else begin
    let e = Rob.slot_entry t.rob slot and prev = Rob.queue_prev t.rob slot in
    match e.instr with
    | Instr.Load _ when e.done_at <= cycle ->
      if e.data2 = 0 then e.result <- read_mem t e.addr;
      Rob.set_state t.rob e Rob.Done;
      Scope_unit.on_bits_cleared t.scope e.scope_mask;
      complete_reads_from t cycle
        (Rob.queue_next t.rob Rob.executing_q slot prev)
        true next
    | Instr.Load _ ->
      complete_reads_from t cycle
        (Rob.queue_next t.rob Rob.executing_q slot prev)
        progress (Int.min next e.done_at)
    | _ ->
      complete_reads_from t cycle
        (Rob.queue_next t.rob Rob.executing_q slot prev)
        progress next
  end

let step_complete_reads t ~cycle =
  cycle >= Rob.load_due t.rob
  && complete_reads_from t cycle (Rob.queue_first t.rob Rob.executing_q) false max_int

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
  Rob.squash_after t.rob e.seq release_squashed t;
  Rob.load_rename e t.rename;
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
   (a misprediction squashes the younger ones before they resolve).
   Loads and CAS belong to the completion phases. *)
let rec finalize_from t cycle slot progress =
  if slot < 0 then progress
  else begin
    let e = Rob.slot_entry t.rob slot and prev = Rob.queue_prev t.rob slot in
    let due =
      match e.instr with
      | Instr.Load _ | Instr.Cas _ -> false
      | _ -> e.done_at <= cycle
    in
    if due then begin
      Rob.set_state t.rob e Rob.Done;
      match e.instr with
      | Instr.Branch _ -> resolve_branch t e ~cycle
      | _ -> ()
    end;
    finalize_from t cycle (Rob.queue_next t.rob Rob.executing_q slot prev) (due || progress)
  end

let finalize t ~cycle = finalize_from t cycle (Rob.queue_first t.rob Rob.executing_q) false
