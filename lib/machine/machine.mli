(** The multicore machine: one core per program thread, private L1s,
    a shared L2, flat shared memory, and a global cycle scheduler.

    Per cycle the machine advances every core through three phases in
    a fixed order — store/CAS completions become visible, then load
    completions sample memory, then the pipelines step — which makes
    same-cycle cross-core interactions deterministic.  The whole run
    is therefore a pure function of (program, config).

    One event-horizon stepper drives that protocol for every engine
    mode: a core whose whole cycle made no progress is frozen until
    its earliest scheduled completion ({!Fscope_cpu.Core.next_wake}),
    its skipped span's accounting replayed in O(1), and when every
    core sleeps the clock jumps to the earliest wake-up.  The stepper
    advances the machine to a stop cycle over one or more shard
    domains, never letting the clock or a frozen core's horizon pass
    the stop, so every core is in its naive-loop state there.  A plain
    run is one call (or one per checkpoint interval); a sampled run is
    one call per detailed window.  {!run_reference} is the naive
    one-cycle-at-a-time loop, kept as the oracle for differential
    testing and as the baseline the bench harness quotes speedups
    against.  The two agree on every [result] field except the engine
    diagnostics [spin] and [shard] ({!same_outcome}); the differential
    test suite enforces this. *)

type spin_ff = {
  sleeps : int;  (** times the engine put a core into spin-sleep *)
  cycles_skipped : int;  (** core-cycles replayed in closed form *)
  wakes : int;  (** sleeps ended by a cross-core store or invalidation *)
}
(** Spin fast-forward counters of the run (see
    [Exec_config.spin_fastforward]).  All zero under {!run_reference},
    on traced runs (which disable the optimisation), or when the
    workload never reached a stable spin.  Deliberately NOT part of
    the bit-identity contract between the two loops — they describe
    how the engine got to the result, not the result. *)

type shard_ctrs = {
  barriers : int;  (** barrier generations the shard team crossed *)
  elided_cycles : int;
      (** cycles run inside elided spans — one meeting barrier per
          span instead of four barriers per cycle (DESIGN §16) *)
}
(** Lockstep-traffic counters of a sharded run.  Zero for one-domain,
    traced, sampled and naive runs.  Like {!spin_ff}, engine diagnostics — NOT part of
    the bit-identity contract. *)

type result = {
  cycles : int;  (** cycle at which every core had halted and drained *)
  timed_out : bool;  (** the run hit [max_cycles] before finishing *)
  core_stats : Fscope_cpu.Core.stats array;
  core_cpi : Fscope_obs.Cpi.t array;
      (** per-core cycle accounting: every active cycle charged to one
          {!Fscope_obs.Cpi.leaf}; per core the leaves sum to that
          core's [active_cycles].  Bit-identical between {!run} and
          {!run_reference}. *)
  mem : int array;  (** final shared memory, for functional self-checks *)
  cache : Fscope_mem.Hierarchy.stats;
  spin : spin_ff;
  shard : shard_ctrs;
  sample_windows : (int * int) list;
      (** a sampled run's measured detailed windows as inclusive
          [start, end] cycle ranges ([[]] otherwise); the sampled
          latency extraction keeps only inject→retire pairs whose
          endpoints fall inside one window *)
  obs : Fscope_obs.Report.t option;
      (** present iff the run was traced; carries the event stream and
          the metrics registry (which includes a snapshot of every
          legacy stat under [core<i>/...], [mem/...], [total/...]; the
          [spin] and [shard] counters, always zero on a traced run, are
          left out) *)
}

val run :
  ?obs:Fscope_obs.Trace.t ->
  ?checkpoint:int * (Checkpoint.t -> unit) ->
  ?resume:Checkpoint.t ->
  Config.t ->
  Fscope_isa.Program.t ->
  result
(** [obs] (default: the disabled {!Fscope_obs.Trace.null}) collects
    the typed event stream and metrics of the run; pass a live
    {!Fscope_obs.Trace.create} to get [result.obs].  Tracing is
    timing-neutral: the cycle count of a traced run is bit-identical
    to an untraced one.

    [checkpoint:(every, sink)] hands [sink] a whole-machine
    {!Checkpoint.t} at the top of every multiple of [every] cycles
    (counted from the start) that the run reaches; [resume] continues
    a run from such a checkpoint (digest-validated, [Failure] on a
    mismatch) — the resumed run is bit-identical to the uninterrupted
    one.  Captures happen with the domain team parked, so checkpoints
    and resumed runs are the same for every shard count; if [sink]
    raises, every domain is joined and the exception re-raised.  Both
    require an untraced run and are rejected ([Invalid_argument]) when
    [Config.sampling] is set.

    With [Config.shard_domains > 1] (and a multi-core program) an
    untraced exact run partitions the cores cyclically across that
    many OCaml domains, spawned once per run, with barriers at phase
    boundaries; within a phase, the steps that may touch shared state
    all run on the first domain in core order, and the others on their
    owners (DESIGN §13).  With [Config.elide_barriers] a sharded exact
    run also collapses spans of provably non-interacting cycles
    ({!Fscope_cpu.Core.quiet_until}) to a single meeting barrier
    (DESIGN §16).

    With [Config.sampling = Some _] the run is SMARTS-style interval
    sampling (DESIGN §15): measured detailed windows alternate with
    functional fast-forward, exact event counters and final memory
    stay exact, and cycle-valued metrics (CPI leaves, mispredicts,
    occupancy, cache stats, [cycles]) are ESTIMATED by scaling with
    committed-instruction coverage.  The detailed->functional
    transition settles rather than flushing blindly: a core flushes
    only once {!Fscope_cpu.Core.flushable} holds and is parked while
    stragglers step to their own flush points.  Sampled runs step on
    one domain whatever [Config.shard_domains] says and record
    [sample_windows] for the latency extraction; their windows keep
    spin fast-forward, and the result is the same with it on or off.
    Traced runs step on one domain too. *)

val run_reference : ?obs:Fscope_obs.Trace.t -> Config.t -> Fscope_isa.Program.t -> result
(** Same machine, driven by the retained naive per-cycle loop instead
    of the fast-forward engine.  Exists as the differential-testing
    reference and the bench baseline; its results agree with {!run}'s
    by {!same_outcome}. *)

val same_outcome : result -> result -> bool
(** Equality of everything but the engine diagnostics [spin] and
    [shard] — the bit-identity contract between {!run} (under any
    shard count, elision or spin fast-forward setting) and
    {!run_reference}. *)

val fence_stall_cycles : result -> int
(** Sum of per-core commit-head fence stalls. *)

val total_active_cycles : result -> int
(** Sum of per-core active cycles — the denominator used when quoting
    the fence-stall share of execution, as in the paper's stacked
    bars. *)

val fence_stall_fraction : result -> float
(** [fence_stall_cycles / total_active_cycles]. *)

val committed_instrs : result -> int
val avg_rob_occupancy : result -> float
