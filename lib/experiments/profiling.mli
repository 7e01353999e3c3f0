(** Cycle-accounting profile runs.

    Bridges the machine/ISA layers to the dependency-free
    {!Fscope_obs.Profile} renderers: extracts the static fence sites,
    scope class ids and backward-edge (spin-candidate) sites from a
    program image, runs the workload once with tracing on, and packs
    the per-core CPI tables plus the metrics registry into a
    {!Fscope_obs.Profile.input}. *)

val fence_sites : Fscope_isa.Program.t -> Fscope_obs.Profile.fence_site list
(** Every static [Fence] instruction, in (thread, pc) program order,
    with its rendered kind. *)

val spin_pcs : Fscope_isa.Program.t -> (int * int) list
(** Static backward control edges [(core, pc)] — the candidate spin
    sites the commit-stream detector can attribute iterations to. *)

val profile :
  ?label:string ->
  Fscope_machine.Config.t ->
  Fscope_workloads.Workload.t ->
  Fscope_obs.Profile.input
(** One traced run of the workload, packaged for rendering.
    Observational: functional validation is skipped (the no-fence
    ablation fails it by design), and because tracing is
    timing-neutral the profiled cycle count is bit-identical to an
    unprofiled run.  [label] overrides the config tag. *)

val advise_inputs :
  Fscope_machine.Config.t ->
  Fscope_workloads.Workload.t ->
  Fscope_obs.Profile.input * Fscope_obs.Profile.input
(** [(traditional, sfence)] profiles of the workload, derived from the
    given base config with {!Exp_run.t_config} / {!Exp_run.s_config}
    and fanned across {!Exp_run.jobs} domains — the pair
    {!Fscope_obs.Advisor.analyze} consumes.  Both are profiled with
    spin fast-forward off, so each costs one traced run and carries
    [spin_ff = None].  Deterministic: the pair is bit-identical for any
    job count. *)
