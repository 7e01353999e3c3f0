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

let producer_to_int = function Rob.Arch -> -1 | Rob.Rob s -> s
let producer_of_int s = if s < 0 then Rob.Arch else Rob.Rob s

let state_to_json = function
  | Rob.Waiting -> Json.Arr [ Json.Int 0 ]
  | Rob.Executing d -> Json.Arr [ Json.Int 1; Json.Int d ]
  | Rob.Done -> Json.Arr [ Json.Int 2 ]

let state_of_json j =
  match Json.list_exn j with
  | [ Json.Int 0 ] -> Rob.Waiting
  | [ Json.Int 1; d ] -> Rob.Executing (Json.int_exn d)
  | [ Json.Int 2 ] -> Rob.Done
  | _ -> failwith "checkpoint: malformed exec state"

let fence_wait_to_json = function
  | None -> Json.Null
  | Some `Global -> Json.Str "g"
  | Some (`Mask m) -> Json.Int m

let fence_wait_of_json = function
  | Json.Null -> None
  | Json.Str "g" -> Some `Global
  | Json.Int m -> Some (`Mask m)
  | _ -> failwith "checkpoint: malformed fence wait"

let mem_level_to_int = function
  | None -> -1
  | Some Fscope_obs.Event.L1_hit -> 0
  | Some Fscope_obs.Event.L2_hit -> 1
  | Some Fscope_obs.Event.L2_miss -> 2

let mem_level_of_int = function
  | -1 -> None
  | 0 -> Some Fscope_obs.Event.L1_hit
  | 1 -> Some Fscope_obs.Event.L2_hit
  | 2 -> Some Fscope_obs.Event.L2_miss
  | _ -> failwith "checkpoint: malformed mem level"

let entry_to_json (e : Rob.entry) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("pc", Json.Int e.pc);
      ("srcs", Json.of_int_list (List.map (fun (s : Rob.src) -> producer_to_int s.producer) (Array.to_list e.srcs)));
      ("state", state_to_json e.state);
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
        match e.checkpoint with
        | None -> Json.Null
        | Some cp -> Json.of_int_list (List.map producer_to_int (Array.to_list cp)) );
    ]

(* Rebuild an entry exactly as dispatch would have: the instruction is
   re-read from the code image and the positional source list from
   [Core_frontend.explicit_srcs] — duplicates and order preserved —
   with the serialized producers zipped back in. *)
let entry_of_json (t : t) j =
  let pc = Json.int_exn (Json.get "pc" j) in
  if pc < 0 || pc >= Array.length t.code then failwith "checkpoint: entry pc out of range";
  let instr = t.code.(pc) in
  let producers = Json.int_list_exn (Json.get "srcs" j) in
  let regs = Core_frontend.explicit_srcs instr in
  if List.length producers <> List.length regs then
    failwith "checkpoint: source arity mismatch (program changed?)";
  let srcs =
    Array.of_list
      (List.map2
         (fun r p -> { Rob.producer = producer_of_int p; reg = r })
         regs producers)
  in
  let e =
    Rob.make_entry
      ~state:(state_of_json (Json.get "state" j))
      ~seq:(Json.int_exn (Json.get "seq" j))
      ~pc ~instr ~srcs
  in
  e.result <- Json.int_exn (Json.get "result" j);
  e.addr <- Json.int_exn (Json.get "addr" j);
  e.data <- Json.int_exn (Json.get "data" j);
  e.data2 <- Json.int_exn (Json.get "data2" j);
  e.scope_mask <- Json.int_exn (Json.get "mask" j);
  e.fence_wait <- fence_wait_of_json (Json.get "fw" j);
  e.fence_issued <- Json.bool_exn (Json.get "fi" j);
  e.fence_cid <- Json.int_exn (Json.get "fcid" j);
  e.mem_level <- mem_level_of_int (Json.int_exn (Json.get "ml" j));
  e.predicted_taken <- Json.bool_exn (Json.get "pt" j);
  (e.checkpoint <-
     (match Json.get "cp" j with
     | Json.Null -> None
     | cp -> Some (Array.of_list (List.map producer_of_int (Json.int_list_exn cp)))));
  e

let counts_to_json (c : counts) =
  Json.of_int_list
    [
      c.committed;
      c.committed_mem;
      c.committed_fences;
      c.branches;
      c.mispredicts;
      c.loads;
      c.stores;
      c.cas_ops;
      c.rob_occupancy_sum;
      c.active_cycles;
    ]

let counts_restore_list (c : counts) = function
  | [ a0; a1; a2; a3; a4; a5; a6; a7; a8; a9 ] ->
    c.committed <- a0;
    c.committed_mem <- a1;
    c.committed_fences <- a2;
    c.branches <- a3;
    c.mispredicts <- a4;
    c.loads <- a5;
    c.stores <- a6;
    c.cas_ops <- a7;
    c.rob_occupancy_sum <- a8;
    c.active_cycles <- a9
  | _ -> failwith "checkpoint: malformed counts"

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
      ("rename", Json.of_int_list (List.map producer_to_int (Array.to_list t.rename)));
      ("rob_head", Json.Int (Rob.head_seq t.rob));
      ("rob", Json.Arr (List.rev !rob_entries));
      ("sb", Json.Arr (List.rev !sb_entries));
      ("bpred", Json.of_int_array (Branch_pred.snapshot t.bpred));
      ("counts", counts_to_json t.counts);
      ("cpi", Json.of_int_array (Cpi.to_array t.cpi));
      ("spin_last_pc", Json.Int t.spin_last_pc);
      ("spin_dirty", Json.Bool t.spin_dirty);
      ("spin_mode", Json.Bool t.spin_mode);
      ("scope", Scope_unit.to_json t.scope);
    ]

let restore (t : t) j =
  t.fetch_pc <- Json.int_exn (Json.get "fetch_pc" j);
  t.fetch_resume <- Json.int_exn (Json.get "fetch_resume" j);
  t.fetch_stopped <- Json.bool_exn (Json.get "fetch_stopped" j);
  t.halted <- Json.bool_exn (Json.get "halted" j);
  t.arch_nest <- Json.int_list_exn (Json.get "arch_nest" j);
  let arf = Json.int_array_exn (Json.get "arf" j) in
  if Array.length arf <> Array.length t.arf then failwith "checkpoint: ARF size mismatch";
  Array.blit arf 0 t.arf 0 (Array.length arf);
  let rename = Json.int_list_exn (Json.get "rename" j) in
  if List.length rename <> Array.length t.rename then
    failwith "checkpoint: rename size mismatch";
  List.iteri (fun i p -> t.rename.(i) <- producer_of_int p) rename;
  Rob.restore t.rob
    ~head_seq:(Json.int_exn (Json.get "rob_head" j))
    (List.map (entry_of_json t) (Json.list_exn (Json.get "rob" j)));
  Store_buffer.restore t.sb
    (List.map
       (fun en ->
         match Json.int_list_exn en with
         | [ addr; value; mask; done_at ] -> { Store_buffer.addr; value; mask; done_at }
         | _ -> failwith "checkpoint: malformed store-buffer entry")
       (Json.list_exn (Json.get "sb" j)));
  Branch_pred.restore t.bpred (Json.int_array_exn (Json.get "bpred" j));
  counts_restore_list t.counts (Json.int_list_exn (Json.get "counts" j));
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
      | _, (Rob.Waiting | Rob.Executing _ | Rob.Done) -> ());
  !ok

(* Fetch suppression for a flushed core while the other cores settle
   to their own flush points: with an empty ROB, a drained store
   buffer and fetch parked, stepping the core is a no-op, so its
   architectural state stays exactly where [flush_arch] put it. *)
let park (t : t) = t.fetch_resume <- max_int
let unpark (t : t) = if t.fetch_resume = max_int then t.fetch_resume <- 0

let flush_arch (t : t) =
  let pc = match Rob.head t.rob with Some e -> e.Rob.pc | None -> t.fetch_pc in
  Store_buffer.iter t.sb (fun (en : Store_buffer.entry) ->
      Mem_port.store t.port ~addr:en.addr ~value:en.value);
  Store_buffer.restore t.sb [];
  Rob.restore t.rob ~head_seq:(Rob.next_seq t.rob) [];
  Array.fill t.rename 0 (Array.length t.rename) Rob.Arch;
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
