(* Cycle-accounting profile runs: extract the static sites a profile
   names from the program image, drive one traced run, and package the
   result as a {!Fscope_obs.Profile.input} for rendering.

   The extraction lives here rather than in [Fscope_obs] so that the
   observability library stays free of ISA/machine dependencies. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Obs = Fscope_obs
module Program = Fscope_isa.Program
module Instr = Fscope_isa.Instr
module Workload = Fscope_workloads.Workload

let fence_sites (program : Program.t) =
  let sites = ref [] in
  Array.iteri
    (fun core code ->
      Array.iteri
        (fun pc instr ->
          match instr with
          | Instr.Fence kind ->
            sites :=
              { Obs.Profile.core; pc; kind = Fscope_isa.Fence_kind.to_string kind }
              :: !sites
          | _ -> ())
        code)
    program.Program.threads;
  List.rev !sites

let cids (program : Program.t) =
  let ids = ref [] in
  Array.iter
    (fun code ->
      Array.iter
        (function
          | Instr.Fs_start cid when not (List.mem cid !ids) -> ids := cid :: !ids
          | _ -> ())
        code)
    program.Program.threads;
  List.sort compare !ids

(* Static backward control edges — the candidate spin sites the
   commit-stream detector can charge.  Forward edges never spin. *)
let spin_pcs (program : Program.t) =
  let edges = ref [] in
  Array.iteri
    (fun core code ->
      Array.iteri
        (fun pc instr ->
          match instr with
          | Instr.Jump target when target <= pc -> edges := (core, pc) :: !edges
          | Instr.Branch { target; _ } when target <= pc -> edges := (core, pc) :: !edges
          | _ -> ())
        code)
    program.Program.threads;
  List.rev !edges

(* The default profile label, read off the config's ablation flag and
   scope hardware. *)
let config_label (config : Config.t) =
  if config.Config.exec.Fscope_cpu.Exec_config.nop_fences then "no-fence"
  else if not config.Config.scope.Fscope_core.Scope_unit.enabled then "traditional"
  else "sfence"

(* One traced run, packaged for the Profile renderers.  Profiling is
   observational: validation is skipped (the no-fence ablation would
   fail it by design), and tracing is timing-neutral, so the cycle
   count equals an unprofiled run's bit for bit.  A profile reads only
   the registry, so its trace records no events. *)
let profile ?label (config : Config.t) (workload : Workload.t) =
  let program = workload.Workload.program in
  let cores = Program.thread_count program in
  let trace = Obs.Trace.metrics_only ~cores () in
  let result = Machine.run ~obs:trace config program in
  let metrics = Option.map (fun (r : Obs.Report.t) -> r.Obs.Report.metrics) result.Machine.obs in
  (* Tracing disables the engine's spin fast-forward, so the traced
     run's spin counters are always zero.  When the config enables the
     optimisation, one extra untraced run (bit-identical in every
     result field) supplies the real counters for the profile. *)
  let spin_ff =
    if config.Config.exec.Fscope_cpu.Exec_config.spin_fastforward then begin
      let plain = Machine.run config program in
      Some
        ( plain.Machine.spin.Machine.sleeps,
          plain.Machine.spin.Machine.cycles_skipped,
          plain.Machine.spin.Machine.wakes )
    end
    else None
  in
  {
    Obs.Profile.label = workload.Workload.name;
    config = (match label with Some l -> l | None -> config_label config);
    cycles = result.Machine.cycles;
    timed_out = result.Machine.timed_out;
    cpi = result.Machine.core_cpi;
    core_active =
      Array.map
        (fun (s : Fscope_cpu.Core.stats) -> s.Fscope_cpu.Core.active_cycles)
        result.Machine.core_stats;
    metrics;
    fence_sites = fence_sites program;
    cids = cids program;
    spin_pcs = spin_pcs program;
    spin_ff;
  }

(* The advisor wants the same workload profiled under traditional and
   scoped fences: the first is the subject, the second the residual
   model.  Both runs are independent, so they fan across the global
   --jobs domains like any experiment sweep.  The advisor never reads
   the spin fast-forward counters, so the profiles run with the
   optimisation off and skip [profile]'s extra untraced run; the
   traced runs are unchanged, since tracing turns it off anyway. *)
let advise_inputs (config : Config.t) (workload : Workload.t) =
  let config = Config.v ~base:config ~spin_fastforward:false () in
  let t = Exp_run.t_config config and s = Exp_run.s_config config in
  let inputs =
    Exp_run.parmap
      ~jobs:(Exp_run.jobs ())
      (fun c -> profile c workload)
      [| t; s |]
  in
  (inputs.(0), inputs.(1))
