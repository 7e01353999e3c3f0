(* The shared state record of one out-of-order core, plus the small
   helpers every pipeline stage needs (operand lookup, ALU evaluation,
   data-plane access through the memory port).  The stages themselves
   live in Core_exec (completions, branch resolution), Core_commit,
   Core_issue and Core_frontend; Core is the public facade. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Scope_unit = Fscope_core.Scope_unit

(* Commit-stream counters.  Stall attribution does NOT live here any
   more: every active cycle is charged to exactly one leaf of the
   [Fscope_obs.Cpi] taxonomy (see Core_commit), and the legacy stall
   counters are derived views over that table. *)
type counts = {
  mutable committed : int;
  mutable committed_mem : int;
  mutable committed_fences : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable loads : int;
  mutable stores : int;
  mutable cas_ops : int;
  mutable rob_occupancy_sum : int;
  mutable active_cycles : int;
}

let fresh_counts () =
  {
    committed = 0;
    committed_mem = 0;
    committed_fences = 0;
    branches = 0;
    mispredicts = 0;
    loads = 0;
    stores = 0;
    cas_ops = 0;
    rob_occupancy_sum = 0;
    active_cycles = 0;
  }

(* The one fixed order of the counters as an int array, shared by the
   checkpoint format and the spin fast-forward's per-period deltas. *)
let counts_to_array c =
  [|
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
  |]

let counts_restore c = function
  | [| a0; a1; a2; a3; a4; a5; a6; a7; a8; a9 |] ->
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
  | _ -> invalid_arg "Core_state.counts_restore: wrong arity"

(* Observability hooks, present only on a traced run: handles are
   resolved once at core creation so emission is a guarded write, and
   [stall_begin] pairs each Fence_stall_begin with its End. *)
type obs = {
  trace : Fscope_obs.Trace.t;
  stall_hist : Fscope_obs.Metrics.histogram;
  rob_gauge : Fscope_obs.Metrics.gauge;
  sb_gauge : Fscope_obs.Metrics.gauge;
  mutable stall_begin : int;  (* cycle the head fence began stalling; -1 = none *)
}

(* ------------------------------------------------------------------ *)
(* Spin fast-forward probe (see Core_spin for the logic).

   The engine may put a core to sleep only when its state is provably
   periodic: the commit stream re-takes the same backward edge, and
   the complete pipeline state at two consecutive loop boundaries is
   identical up to a uniform shift of every cycle- and seq-valued
   field.  The snapshot below captures exactly the state the core's
   evolution depends on, relativized so that equality of two snapshots
   implies the shifted-state equality. *)

(* One ROB entry, with seqs expressed relative to the ROB's next seq
   (dead producers — entries that already committed — map to the Arch
   sentinel, which is behaviorally identical) and completion cycles
   relative to the snapshot cycle. *)
type entry_snap = {
  s_seq : int;
  s_pc : int;
  s_instr : Instr.t;
  s_srcs : (int * int) array;  (* (relative producer; -1 = Arch, reg index) *)
  s_state : int * int;  (* (0,_) Waiting, (1,rel) Executing, (2,_) Done *)
  s_result : int;
  s_addr : int;
  s_data : int;
  s_data2 : int;
  s_mask : Fscope_core.Fsb.mask;
  s_mem_level : Fscope_obs.Event.mem_outcome option;
  s_predicted : bool;
  s_checkpoint : int array option;
}

type snapshot = {
  sn_pc : int;  (* fetch_pc *)
  sn_stopped : bool;
  sn_resume : int;  (* fetch_resume - cycle when pending, else min_int *)
  sn_arf : int array;
  sn_rename : int array;  (* relative producers *)
  sn_rob : entry_snap array;
  sn_bpred : int array;
  sn_outstanding : int array;  (* per-FSB-column outstanding counts *)
  sn_scope : (int * bool) list;  (* scope unit event-FIFO fingerprint *)
  sn_spin_pc : int;  (* spin_last_pc *)
}

(* A proven-stable spin loop, as handed to the engine: everything
   needed to account [k] skipped periods in closed form and to watch
   for the stores that could end the spin. *)
type stable = {
  armed_cycle : int;
  period : int;  (* cycles between consecutive loop boundaries *)
  d_counts : int array;  (* per-period commit-counter deltas *)
  d_cpi : int array;  (* per-period CPI-leaf deltas, in Cpi.to_array order *)
  loads_per_period : int;  (* port loads issued per period (all L1 hits) *)
  footprint : int list;  (* word addresses the loop reads *)
}

type probe = {
  mutable pr_enabled : bool;  (* engine opt-in; off in the naive loop *)
  mutable pr_boundary : bool;  (* a spinning backward edge committed this cycle *)
  mutable pr_last_cycle : int;  (* previous boundary cycle; -1 = none *)
  mutable pr_dirty : bool;  (* disqualifying event since the last boundary *)
  mutable pr_footprint : int list;  (* load addresses since the last boundary *)
  mutable pr_loads : int;
  mutable pr_arf : int array option;  (* ARF at the chain's boundaries (tier-1 gate) *)
  mutable pr_snap : snapshot option;  (* full snapshot at the previous boundary *)
  mutable pr_counts : int array;  (* commit counters at the previous boundary *)
  mutable pr_cpi : int array;  (* CPI leaves at the previous boundary *)
  mutable pr_armed : stable option;
}

let fresh_probe () =
  {
    pr_enabled = false;
    pr_boundary = false;
    pr_last_cycle = -1;
    pr_dirty = false;
    pr_footprint = [];
    pr_loads = 0;
    pr_arf = None;
    pr_snap = None;
    pr_counts = [||];
    pr_cpi = [||];
    pr_armed = None;
  }

type t = {
  id : int;
  code : Instr.t array;
  src_regs : Reg.t array array;  (* per pc: {!operand_regs} of [code.(pc)] *)
  port : Mem_port.t;
  scope : Scope_unit.t;
  cfg : Exec_config.t;
  rob : Rob.t;
  sb : Store_buffer.t;
  bpred : Branch_pred.t;
  arf : int array;
  rename : Rob.producer array;
  mutable fetch_pc : int;
  mutable fetch_resume : int;
  mutable fetch_stopped : bool;
  mutable halted : bool;
  (* Committed scope nesting, innermost cid first.  Maintained at
     commit of Fs_start / Fs_end (and by the functional executor), read
     by the sampled engine to replay the architectural nesting into a
     freshly reset scope unit at a functional->detailed transition.
     Pure bookkeeping: never read by any pipeline stage. *)
  mutable arch_nest : int list;
  counts : counts;
  cpi : Fscope_obs.Cpi.t;
  (* [cycle_charged] marks that commit already charged this cycle's
     leaf (a blocked fence or a full store buffer); the end-of-step
     classification in Core.step_pipeline then stands down. *)
  mutable cycle_charged : bool;
  (* Spin detection over the commit stream: [spin_mode] is entered
     when a backward control transfer at [spin_last_pc] repeats with
     no store/CAS/fence committed in between ([spin_dirty]).  Commit
     cycles in spin mode are charged to [Spin_candidate]. *)
  mutable spin_last_pc : int;
  mutable spin_dirty : bool;
  mutable spin_mode : bool;
  (* Spin fast-forward stability probe; fed by the stages, driven by
     Core_spin, consumed by the engine.  Inert unless [pr_enabled]. *)
  spin_probe : probe;
  obs : obs option;
}

(* Positional source registers, in the order execution reads them
   (duplicates kept): the registers behind a ROB entry's [srcs]. *)
let operand_regs = function
  | Instr.Nop | Instr.Li _ | Instr.Tid _ | Instr.Jump _ | Instr.Fence _
  | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    [||]
  | Instr.Alu (_, _, a, Instr.Reg b) -> [| a; b |]
  | Instr.Alu (_, _, a, Instr.Imm _) -> [| a |]
  | Instr.Load { base; _ } -> [| base |]
  | Instr.Store { src; base; _ } -> [| src; base |]
  | Instr.Cas { base; expected; desired; _ } -> [| base; expected; desired |]
  | Instr.Branch { src; _ } -> [| src |]

(* [code] never changes, so a core looks its operand registers up per
   pc.  Equal register lists share one array, which keeps the table at
   about a word per instruction. *)
let src_regs_table code =
  let seen = Hashtbl.create 64 in
  Array.map
    (fun instr ->
      let regs = operand_regs instr in
      match Hashtbl.find_opt seen regs with
      | Some shared -> shared
      | None ->
        Hashtbl.add seen regs regs;
        regs)
    code

(* A source value is available if its producer has left the ROB (then
   the architectural file holds it: in-order commit guarantees no
   younger same-register producer has overwritten it yet) or has
   finished executing.  [src_ready] and [src_get] split the test from
   the read so that issue allocates nothing per operand. *)
let src_ready t cycle (s : Rob.src) =
  Reg.equal s.reg Reg.zero
  ||
  match s.producer with
  | Rob.Arch -> true
  | Rob.Rob seq -> (
    (not (Rob.contains t.rob seq))
    ||
    match (Rob.get t.rob seq).state with
    | Rob.Done -> true
    | Rob.Executing d -> d <= cycle
    | Rob.Waiting -> false)

(* The value of a source [src_ready] accepted. *)
let src_get t (s : Rob.src) =
  if Reg.equal s.reg Reg.zero then 0
  else
    match s.producer with
    | Rob.Rob seq when Rob.contains t.rob seq -> (Rob.get t.rob seq).result
    | Rob.Rob _ | Rob.Arch -> t.arf.(Reg.index s.reg)

let rec srcs_ready_from t cycle (e : Rob.entry) i =
  i >= Array.length e.srcs
  || (src_ready t cycle e.srcs.(i) && srcs_ready_from t cycle e (i + 1))

let srcs_ready t cycle e = srcs_ready_from t cycle e 0

let eval_alu op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then 0 else a / b
  | Instr.Rem -> if b = 0 then 0 else a mod b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 63)
  | Instr.Shr -> a asr (b land 63)
  | Instr.Slt -> if a < b then 1 else 0
  | Instr.Sle -> if a <= b then 1 else 0
  | Instr.Seq -> if a = b then 1 else 0
  | Instr.Sne -> if a <> b then 1 else 0

let in_bounds t addr = Mem_port.in_bounds t.port ~addr

let read_mem t addr = if in_bounds t addr then Mem_port.load t.port ~addr else 0
