(* Whole-core checkpointing, and the architectural flush / reseed
   protocol the sampled engine uses at detailed<->functional
   transitions.

   Unlike the spin probe's snapshot (Core_spin.build_snapshot), which
   relativizes every cycle- and seq-valued field so two loop boundaries
   compare equal, a checkpoint keeps everything ABSOLUTE: it is taken
   at the top of the engine's cycle loop and restored into a machine
   rebuilt at the same cycle, so completion deadlines, fetch-resume
   points and ROB seqs are valid verbatim.  Instructions are never
   serialized — an entry stores its pc and the restore re-reads
   [code.(pc)]; the machine-level digest check guarantees the program
   is the same one.

   Checkpointing is restricted to untraced runs (no [obs] state) with
   no armed spin certificate at the capture point (the engine force-
   wakes sleepers first), so neither is serialized. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit
module Cpi = Fscope_obs.Cpi
module Json = Fscope_util.Json
open Core_state

(* ------------------------------------------------------------------ *)
(* Field codecs                                                        *)

let state_to_json (e : Rob.entry) =
  match e.state with
  | Rob.Waiting -> Json.Arr [ Json.Int 0 ]
  | Rob.Executing -> Json.Arr [ Json.Int 1; Json.Int e.done_at ]
  | Rob.Done -> Json.Arr [ Json.Int 2 ]

(* The state and its completion cycle ([done_at], 0 unless
   [Executing]). *)
let state_of_json j =
  match Json.list_exn j with
  | [ Json.Int 0 ] -> (Rob.Waiting, 0)
  | [ Json.Int 1; d ] -> (Rob.Executing, Json.int_exn d)
  | [ Json.Int 2 ] -> (Rob.Done, 0)
  | _ -> failwith "checkpoint: malformed exec state"

let fence_wait_to_json w =
  if w = Rob.wait_none then Json.Null
  else if w = Scope_unit.wait_global then Json.Str "g"
  else Json.Int w

let fence_wait_of_json = function
  | Json.Null -> Rob.wait_none
  | Json.Str "g" -> Scope_unit.wait_global
  | Json.Int m when m >= 0 -> m
  | _ -> failwith "checkpoint: malformed fence wait"

let mem_level_to_int = function
  | Rob.Unserved -> -1
  | Rob.L1 -> 0
  | Rob.L2 -> 1
  | Rob.Main -> 2

let mem_level_of_int = function
  | -1 -> Rob.Unserved
  | 0 -> Rob.L1
  | 1 -> Rob.L2
  | 2 -> Rob.Main
  | _ -> failwith "checkpoint: malformed mem level"

let entry_to_json (e : Rob.entry) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("pc", Json.Int e.pc);
      ("srcs", Json.of_int_list (List.init e.n_srcs (Rob.src_producer e)));
      ("state", state_to_json e);
      ("result", Json.Int e.result);
      ("addr", Json.Int e.addr);
      ("data", Json.Int e.data);
      ("data2", Json.Int e.data2);
      ("mask", Json.Int e.scope_mask);
      ("fw", fence_wait_to_json e.fence_wait);
      ("fi", Json.Bool e.fence_issued);
      ("fcid", Json.Int e.fence_cid);
      ("ml", Json.Int (mem_level_to_int e.mem_level));
      ("pt", Json.Bool e.predicted_taken);
      ( "cp",
        if e.has_cp then Json.of_int_list (List.init Reg.count (Rob.rename_producer e))
        else Json.Null );
    ]

(* Rebuild an entry exactly as dispatch would have, in the ROB's next
   slot: the instruction is re-read from the code image and the
   positional source registers from the core's per-pc [src_regs] —
   duplicates and order preserved — with the serialized producers
   zipped back in.  The entry is not in flight yet, so its address is
   set by {!Rob.fresh}, not through [Rob.set_addr]. *)
let entry_of_json (t : t) j =
  let pc = Json.int_exn (Json.get "pc" j) in
  if pc < 0 || pc >= Array.length t.code then failwith "checkpoint: entry pc out of range";
  let instr = t.code.(pc) in
  let producers = Json.int_list_exn (Json.get "srcs" j) in
  let regs = t.src_regs.(pc) in
  if List.length producers <> Array.length regs then
    failwith "checkpoint: source arity mismatch (program changed?)";
  let seq = Json.int_exn (Json.get "seq" j) in
  if seq <> Rob.next_seq t.rob then failwith "checkpoint: non-consecutive ROB seq";
  let state, done_at = state_of_json (Json.get "state" j) in
  let addr = Json.int_exn (Json.get "addr" j) in
  let e = Rob.fresh t.rob ~seq ~state ~done_at ~addr ~pc ~instr in
  List.iteri (fun i p -> Rob.add_src e ~reg:regs.(i) ~producer:(Int.max (-1) p)) producers;
  e.result <- Json.int_exn (Json.get "result" j);
  e.data <- Json.int_exn (Json.get "data" j);
  e.data2 <- Json.int_exn (Json.get "data2" j);
  e.scope_mask <- Json.int_exn (Json.get "mask" j);
  e.fence_wait <- fence_wait_of_json (Json.get "fw" j);
  e.fence_issued <- Json.bool_exn (Json.get "fi" j);
  e.fence_cid <- Json.int_exn (Json.get "fcid" j);
  e.mem_level <- mem_level_of_int (Json.int_exn (Json.get "ml" j));
  e.predicted_taken <- Json.bool_exn (Json.get "pt" j);
  (match Json.get "cp" j with
  | Json.Null -> ()
  | cp ->
    let cp = Json.int_array_exn cp in
    if Array.length cp <> Reg.count then failwith "checkpoint: rename checkpoint size mismatch";
    Rob.save_rename e (Array.map (Int.max (-1)) cp));
  e

(* ------------------------------------------------------------------ *)
(* Whole-core snapshot / restore                                       *)

let snapshot (t : t) =
  let rob_entries = ref [] in
  Rob.iter t.rob (fun e -> rob_entries := entry_to_json e :: !rob_entries);
  let sb_entries = ref [] in
  Store_buffer.iter t.sb (fun (en : Store_buffer.entry) ->
      sb_entries :=
        Json.of_int_list [ en.addr; en.value; en.mask; en.done_at ] :: !sb_entries);
  Json.Obj
    [
      ("fetch_pc", Json.Int t.fetch_pc);
      ("fetch_resume", Json.Int t.fetch_resume);
      ("fetch_stopped", Json.Bool t.fetch_stopped);
      ("halted", Json.Bool t.halted);
      ("arch_nest", Json.of_int_list t.arch_nest);
      ("arf", Json.of_int_array t.arf);
      ("rename", Json.of_int_array t.rename);
      ("rob_head", Json.Int (Rob.head_seq t.rob));
      ("rob", Json.Arr (List.rev !rob_entries));
      ("sb", Json.Arr (List.rev !sb_entries));
      ("bpred", Json.of_int_array (Branch_pred.snapshot t.bpred));
      ("counts", Json.of_int_array (counts_to_array t.counts));
      ("cpi", Json.of_int_array (Cpi.to_array t.cpi));
      ("spin_last_pc", Json.Int t.spin_last_pc);
      ("spin_dirty", Json.Bool t.spin_dirty);
      ("spin_mode", Json.Bool t.spin_mode);
      ("scope", Scope_unit.to_json t.scope);
    ]

(* A committed store waiting in the store buffer has passed commit's
   bounds check, so its address lies in memory; draining one that does
   not would fail mid-run.  (A ROB entry's address is not checked: a
   wrong-path access may hold a garbage one.) *)
let sb_entry_of_json (t : t) en =
  match Json.int_list_exn en with
  | [ addr; value; mask; done_at ] ->
    if not (in_bounds t addr) then failwith "checkpoint: store-buffer address out of range";
    { Store_buffer.addr; value; mask; done_at }
  | _ -> failwith "checkpoint: malformed store-buffer entry"

let restore_fields (t : t) j =
  let fetch_pc = Json.int_exn (Json.get "fetch_pc" j) in
  (* fetch stops at the end of the code, so one past it is a valid pc *)
  if fetch_pc < 0 || fetch_pc > Array.length t.code then
    failwith "checkpoint: fetch_pc out of range";
  t.fetch_pc <- fetch_pc;
  t.fetch_resume <- Json.int_exn (Json.get "fetch_resume" j);
  t.fetch_stopped <- Json.bool_exn (Json.get "fetch_stopped" j);
  t.halted <- Json.bool_exn (Json.get "halted" j);
  t.arch_nest <- Json.int_list_exn (Json.get "arch_nest" j);
  let arf = Json.int_array_exn (Json.get "arf" j) in
  if Array.length arf <> Array.length t.arf then failwith "checkpoint: ARF size mismatch";
  Array.blit arf 0 t.arf 0 (Array.length arf);
  let rename = Json.int_array_exn (Json.get "rename" j) in
  if Array.length rename <> Array.length t.rename then
    failwith "checkpoint: rename size mismatch";
  Array.iteri (fun i p -> t.rename.(i) <- Int.max (-1) p) rename;
  Rob.restore t.rob
    ~head_seq:(Json.int_exn (Json.get "rob_head" j))
    (Json.list_exn (Json.get "rob" j))
    (entry_of_json t);
  Store_buffer.restore t.sb (List.map (sb_entry_of_json t) (Json.list_exn (Json.get "sb" j)));
  Branch_pred.restore t.bpred (Json.int_array_exn (Json.get "bpred" j));
  counts_restore t.counts (Json.int_array_exn (Json.get "counts" j));
  Cpi.restore t.cpi (Json.int_array_exn (Json.get "cpi" j));
  t.spin_last_pc <- Json.int_exn (Json.get "spin_last_pc" j);
  t.spin_dirty <- Json.bool_exn (Json.get "spin_dirty" j);
  t.spin_mode <- Json.bool_exn (Json.get "spin_mode" j);
  Scope_unit.restore t.scope (Json.get "scope" j);
  (* a restored core starts with a clean probe — re-arming needs fresh
     boundaries, which costs nothing and keeps probe state out of the
     format *)
  t.cycle_charged <- false;
  Core_spin.cancel t

(* The components' restores reject inconsistent state with
   [Invalid_argument] (a wrong arity, non-consecutive ROB seqs, an
   out-of-range scope bit, an overfull store buffer).  Read from a
   checkpoint file that is bad input, not a bug, so it fails like any
   other malformed field. *)
let restore (t : t) j =
  try restore_fields t j with Invalid_argument msg -> failwith ("checkpoint: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Sampled-mode transitions                                            *)

(* Detailed -> functional: collapse the core to architectural state.
   The oldest un-committed instruction (ROB head) defines the
   architectural pc; committed stores sitting in the store buffer are
   already globally ordered, so they drain to memory in FIFO order;
   all speculative work is discarded (the functional executor simply
   re-executes it).  Timing state — caches, predictor — is left warm
   on purpose: that is what the post-fast-forward warmup refines. *)
(* A CAS performs its RMW at its completion point, BEFORE commit
   (Core_exec.step_complete_writes): a [Done] CAS in the ROB has
   already written memory, so discarding it in [flush_arch] would let
   the functional executor apply the RMW a second time.  An
   [Executing] CAS has not written yet — the write only fires for an
   entry still in the ROB at its deadline — and [cas_issue_ok]
   guarantees it is non-speculative, so discarding and re-executing it
   functionally is a valid (merely different) execution.  The sampled
   engine flushes a core only when this predicate holds, stepping it
   detailed until the completed CAS commits. *)
let flushable (t : t) =
  let ok = ref true in
  Rob.iter t.rob (fun e ->
      match (e.Rob.instr, e.Rob.state) with
      | Instr.Cas _, Rob.Done -> ok := false
      | _, (Rob.Waiting | Rob.Executing | Rob.Done) -> ());
  !ok

(* Fetch suppression for a flushed core while the other cores settle
   to their own flush points: with an empty ROB, a drained store
   buffer and fetch parked, stepping the core is a no-op, so its
   architectural state stays exactly where [flush_arch] put it. *)
let park (t : t) = t.fetch_resume <- max_int
let unpark (t : t) = if t.fetch_resume = max_int then t.fetch_resume <- 0

let flush_arch (t : t) =
  let pc = if Rob.is_empty t.rob then t.fetch_pc else (Rob.head t.rob).Rob.pc in
  Store_buffer.iter t.sb (fun (en : Store_buffer.entry) ->
      Mem_port.store t.port ~addr:en.addr ~value:en.value);
  Store_buffer.restore t.sb [];
  Rob.restore t.rob ~head_seq:(Rob.next_seq t.rob) [] Fun.id;
  Array.fill t.rename 0 (Array.length t.rename) (-1);
  t.fetch_pc <- pc;
  t.fetch_resume <- 0;
  t.fetch_stopped <- t.halted;
  t.cycle_charged <- false;
  t.spin_last_pc <- -1;
  t.spin_dirty <- true;
  t.spin_mode <- false;
  Core_spin.cancel t

(* Functional -> detailed: the scope unit's speculative machinery was
   left behind at the flush, so rebuild it from the committed nesting
   the executor maintained. *)
let reseed_scope (t : t) =
  Scope_unit.reset t.scope;
  List.iter (fun cid -> Scope_unit.on_fs_start t.scope ~cid) (List.rev t.arch_nest)

(* Warmup erasure: the sampled engine runs [warmup] detailed cycles to
   re-warm pipeline state, then discards their MICRO-ARCHITECTURAL
   accounting (mispredicts, occupancy, active cycles, CPI leaves) so
   only the measured window contributes to the extrapolated metrics.
   The exact event counters (commits, memory ops, fences, ...) are
   real forward progress — warmup instructions execute once, not
   again — and are never erased. *)
let counters_snapshot (t : t) =
  ( [| t.counts.mispredicts; t.counts.rob_occupancy_sum; t.counts.active_cycles |],
    Cpi.to_array t.cpi )

let counters_restore (t : t) (a, cpi) =
  (match a with
  | [| m; r; ac |] ->
    t.counts.mispredicts <- m;
    t.counts.rob_occupancy_sum <- r;
    t.counts.active_cycles <- ac
  | _ -> invalid_arg "Core.counters_restore: malformed snapshot");
  Cpi.restore t.cpi cpi

(* Scale the measured micro-architectural metrics to the whole run:
   [total] committed instructions were executed, [measured] of them
   inside measured detailed windows, so each cycle-valued metric grows
   by [total/measured] (integer arithmetic; [active_cycles] is re-set
   to the sum of the scaled leaves so the leaves-sum-to-active
   invariant survives scaling). *)
let extrapolate (t : t) ~total ~measured =
  if measured > 0 && total > measured then begin
    let scale x = x * total / measured in
    let scaled = Array.map scale (Cpi.to_array t.cpi) in
    Cpi.restore t.cpi scaled;
    t.counts.mispredicts <- scale t.counts.mispredicts;
    t.counts.rob_occupancy_sum <- scale t.counts.rob_occupancy_sum;
    t.counts.active_cycles <- Array.fold_left ( + ) 0 scaled
  end
