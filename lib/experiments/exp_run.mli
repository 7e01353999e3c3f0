(** Shared plumbing for the experiment modules: the four machine
    variants of the evaluation and a measured-run record. *)

val workload :
  ?params:Fscope_workloads.Workload.params -> string -> Fscope_workloads.Workload.t
(** Registry lookup + build; raises [Failure] with
    {!Fscope_workloads.Registry.unknown_message} on an unknown name.
    [params] defaults to {!Fscope_workloads.Workload.default_params}. *)

type measurement = {
  cycles : int;
  fence_stall_fraction : float;
      (** share of per-core active cycles spent commit-blocked on a fence *)
  fence_stalls : int;
  active_cycles : int;
  avg_rob_occupancy : float;
}

val t_config : Fscope_machine.Config.t -> Fscope_machine.Config.t
(** Traditional fences (S-Fence hardware disabled). *)

val s_config : Fscope_machine.Config.t -> Fscope_machine.Config.t
(** S-Fence hardware enabled. *)

val t_plus : Fscope_machine.Config.t -> Fscope_machine.Config.t
(** Traditional + in-window speculation. *)

val s_plus : Fscope_machine.Config.t -> Fscope_machine.Config.t
(** S-Fence + in-window speculation. *)

val nf_config : Fscope_machine.Config.t -> Fscope_machine.Config.t
(** No-fence ablation: fences retire as nops (timing-only; ordering is
    not enforced, so runs under this config skip validation).  The
    profiler's upper bound on what fence elision could buy. *)

val variants : (string * (Fscope_machine.Config.t -> Fscope_machine.Config.t)) list
(** The evaluation's four machines in order, labelled as in the
    paper: [T], [S], [T+], [S+]. *)

val sampled_config :
  ?sampling:Fscope_machine.Config.sampling ->
  Fscope_machine.Config.t ->
  Fscope_machine.Config.t
(** Interval-sampled variant of any machine config (default schedule:
    {!Fscope_machine.Config.sampling_default}).  {!measure} works
    unchanged on such a config — cycle-valued fields become estimates,
    and validation still runs exactly (see DESIGN §15). *)

val measure : Fscope_machine.Config.t -> Fscope_workloads.Workload.t -> measurement
(** Run and summarise.  Functional validation is enforced whenever
    in-window speculation is off (speculation is modelled without the
    replay mechanism real hardware uses, so its runs are timing-only;
    see DESIGN.md). *)

val speedup : baseline:measurement -> measurement -> float

val set_jobs : int -> unit
(** Number of domains {!measure_all} fans experiment points across
    (default 1 = sequential).  Process-global: the CLI's [--jobs] flag
    sets it once at startup.  How many domains one machine's cores are
    split across is a machine knob instead,
    [Fscope_machine.Config.shard_domains].  Raises [Invalid_argument]
    when [n < 1]. *)

val jobs : unit -> int

val parmap : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Generic deterministic fan-out over domains: applies [f] to every
    element (work-stealing by atomic index) and returns results in
    input order.  [f] must be safe to run concurrently with itself;
    with [jobs <= 1] everything runs on the calling domain.  The first
    (lowest-index) exception is re-raised after all domains join.
    {!measure_all} and the server artefact are both built on this. *)

type spec = {
  config : Fscope_machine.Config.t;
  workload : Fscope_workloads.Workload.t;
}
(** One experiment point.  Points are independent: a run shares no
    mutable state with any other run, which is what makes the fan-out
    below sound. *)

val measure_all : spec list -> measurement list
(** [measure_all specs] measures every point and returns the results
    in input order.  With [jobs () > 1] the points are distributed
    over that many OCaml domains (work-stealing by atomic index);
    ordering and values are independent of the schedule, so rendered
    tables are byte-identical for any job count.  If a point raises,
    the first (lowest-index) exception is re-raised after all domains
    have joined. *)
