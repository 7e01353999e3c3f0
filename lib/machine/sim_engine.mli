(** The cycle scheduler: builds a machine instance (cores wired to the
    cache hierarchy and flat memory through a {!Fscope_cpu.Mem_port})
    and drives the three-phase step protocol.

    One event-horizon stepper drives that protocol for every engine
    mode: a core whose whole cycle made no progress is frozen until
    its earliest scheduled completion ({!Fscope_cpu.Core.next_wake}),
    its skipped span's accounting replayed in O(1), and when every
    core sleeps the clock jumps to the earliest wake-up.  The stepper
    advances the machine to a stop cycle over one or more shard
    domains, never letting the clock or a frozen core's horizon pass
    the stop, so every core is in its naive-loop state there.  A plain
    run is one call (or one per checkpoint interval); a sampled run is
    one call per detailed window.  Results (cycle counts, every stats
    field, final memory, metrics) are bit-identical to stepping each
    core every cycle.  {!run_reference} is that naive loop, kept as
    the oracle for differential testing and as the baseline the bench
    harness quotes speedups against. *)

type spin_stats = {
  mutable sleeps : int;
  mutable cycles_skipped : int;
  mutable wakes : int;
}
(** Spin fast-forward bookkeeping: how often a provably-stable spin
    loop was put to sleep, how many of its cycles were replayed in
    closed form instead of stepped, and how many sleeps ended in a
    cross-core wake (the rest ran into a stop).  Always zero for
    {!run_reference}, for traced and sampled runs, and with
    [Exec_config.spin_fastforward] off. *)

type shard_stats = {
  mutable barriers : int;
  mutable elided_cycles : int;
}
(** Lockstep-traffic bookkeeping of a sharded run: barrier
    generations crossed, and cycles run inside elided spans (one
    meeting barrier per span instead of four barriers per cycle — see
    DESIGN.md §16).  Zeros for one-domain and naive runs.  Engine diagnostics, like {!spin_stats}: excluded
    from bit-identity comparisons. *)

type raw = {
  cycles : int;
  timed_out : bool;
  cores : Fscope_cpu.Core.t array;
  mem : int array;
  hierarchy : Fscope_mem.Hierarchy.t;
  spin : spin_stats;
  shard : shard_stats;
  windows : (int * int) list;
      (** a sampled run's measured detailed windows, as inclusive
          [start, end] cycle ranges in run order ([[]] otherwise) —
          the latency extraction uses these to keep only event pairs
          whose endpoints both fall inside one measured window *)
}

val run :
  ?obs:Fscope_obs.Trace.t ->
  ?checkpoint:int * (Checkpoint.t -> unit) ->
  ?resume:Checkpoint.t ->
  Config.t ->
  Fscope_isa.Program.t ->
  raw
(** Event-horizon fast-forward engine.  With [Config.shard_domains > 1]
    (and a multi-core program) the cores are partitioned cyclically
    across that many OCaml domains, spawned once per run, which run
    the same three-phase protocol with barriers at phase boundaries
    and a global-order token serialising exactly the steps that touch
    shared state — results stay bit-identical to the one-domain
    engine (and to {!run_reference}) except for the spin fast-forward
    and shard counters, which every consumer already treats as engine
    diagnostics.  With [Config.elide_barriers] (the default), a
    sharded exact run additionally collapses spans of provably
    non-interacting cycles — no memory writes, no ordered steps, no
    sleep or drain transitions machine-wide, per
    {!Fscope_cpu.Core.quiet_until} — to a single meeting barrier.

    [checkpoint:(every, sink)]: capture a whole-machine checkpoint at
    the top of each cycle [start + k * every] the run reaches
    ([start] is 0, or the resume cycle) and hand it to [sink].
    [resume]: start from a checkpoint instead of cycle 0
    (digest-validated; [Failure] on mismatch).  Captures happen with
    the domain team parked, so checkpoints and resumed runs are
    bit-identical across shard counts.  If [sink] raises, every domain
    is joined and the exception re-raised.  Untraced runs only.

    With [Config.sampling = Some _] the run is SMARTS-style interval
    sampling: measured detailed windows alternate with functional
    fast-forward, and cycle-valued metrics (CPI leaves, mispredicts,
    occupancy, cache stats, [cycles]) are scaled by
    committed-instruction coverage at the end.  Exact event counters
    (committed / memory / fence / load / store / CAS / branch counts,
    final memory) remain exact.  Deterministic, but an estimate — the
    sampled harness bounds the per-metric error.  Untraced sampled
    runs shard their detailed windows across [shard_domains]
    (bit-identical for any shard count); traced ones run them on one
    domain and record their cycle ranges ([raw.windows]), which is
    what the sampled latency extraction consumes.  Spin fast-forward
    and barrier elision stay off inside windows.  The
    detailed->functional transition settles rather than flushing
    blindly: a core flushes only once {!Fscope_cpu.Core.flushable}
    holds (no completed CAS still in its ROB — its RMW already hit
    memory and must not be re-applied functionally) and is parked
    while stragglers step detailed to their own flush points.
    Combining sampling with checkpointing is [Invalid_argument]. *)

val run_reference :
  ?obs:Fscope_obs.Trace.t -> Config.t -> Fscope_isa.Program.t -> raw
(** The naive one-cycle-at-a-time reference loop: every core steps
    every cycle, with no fast-forward, sharding or sampling. *)
