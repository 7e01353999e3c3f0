(** Whole-machine configuration: pipeline, memory system, S-Fence
    hardware, and the run's safety limit.

    Build configurations with the keyword constructor {!v}.  The
    record type stays exposed for pattern matching, but prefer {!v}
    over direct record construction or record-update syntax — new
    fields then never break call sites. *)

(** Which backend answers the cores' memory transactions. *)
type mem_model =
  | Hierarchy  (** the MSI-coherent L1/L2/memory model (Table III) *)
  | Ideal
      (** every access completes the next cycle — an idealized memory
          with no caches or coherence traffic; useful to isolate
          pipeline effects from memory-system effects *)

(** SMARTS-style interval sampling (DESIGN §15).  The engine
    alternates measured detailed windows with functional fast-forward
    and extrapolates cycle-valued metrics from the measured fraction;
    exact event counters stay exact.  Estimates, not bit-identity —
    the sampled harness tests bound the per-metric error. *)
type sampling = {
  warmup : int;
      (** detailed cycles run before each measured window to re-warm
          pipeline state; their accounting is erased *)
  detailed : int;  (** measured detailed cycles per window *)
  ff_instrs : int;
      (** committed instructions each core fast-forwards functionally
          between windows *)
}

val sampling_default : sampling
(** 500 warmup / 1k detailed / 20k fast-forward — many short windows
    at roughly a 5%% measured duty cycle, which samples phases densely
    and keeps the sampled execution from drifting far from the
    detailed dynamics between measurements. *)

type t = {
  exec : Fscope_cpu.Exec_config.t;
  mem : Fscope_mem.Hierarchy.config;
  mem_model : mem_model;
  scope : Fscope_core.Scope_unit.config;
  max_cycles : int;  (** runaway guard; a run reaching it is reported as timed out *)
  shard_domains : int;
      (** partition the machine's cores across this many OCaml domains
          (default 1 = the sequential engine).  Applies to untraced
          exact runs only, checkpoint legs included; traced runs and
          sampled runs always step on one domain.  Results are
          bit-identical for any value — this only trades simulator
          wall-clock; see DESIGN.md §13. *)
  elide_barriers : bool;
      (** let the sharded engine collapse provably non-interacting
          cycle spans to a single barrier (default [true]), so like
          [shard_domains] it only affects untraced exact runs.
          Bit-identical either way — wall-clock and barrier-count
          only; see DESIGN.md §16. *)
  sampling : sampling option;
      (** [Some _] selects the sampled engine, which steps on one
          domain; [None] (the default) is exact detailed simulation. *)
}

val default : t
(** The paper's Table III machine: 8-core runs use this per-core
    configuration — ROB 128, 32 KB L1 (2 cycles), 1 MB shared L2
    (10 cycles), 300-cycle memory, 4 FSB entries, 4 FSS entries,
    S-Fence hardware enabled, no in-window speculation. *)

val v :
  ?base:t ->
  ?sfence:bool ->
  ?speculation:bool ->
  ?nop_fences:bool ->
  ?spin_fastforward:bool ->
  ?mem_model:mem_model ->
  ?mem_latency:int ->
  ?rob_size:int ->
  ?fsb_entries:int ->
  ?fss_entries:int ->
  ?mt_entries:int ->
  ?max_cycles:int ->
  ?shard_domains:int ->
  ?elide_barriers:bool ->
  ?sampling:sampling option ->
  unit ->
  t
(** The one keyword constructor: start from [base] ({!default} when
    omitted) and override exactly the named knobs.

    - [sfence]: S-Fence hardware on (S) / off — every fence behaves as
      a traditional full fence (baseline T);
    - [speculation]: in-window speculation (the + variants;
      timing-only, validation is skipped on speculative runs);
    - [nop_fences]: the no-fence ablation — fences retire immediately
      and order nothing (timing-only upper bound);
    - [spin_fastforward]: the engine's spin sleep/replay optimisation
      (bit-identical results either way, wall-clock only);
    - [mem_model], [mem_latency], [rob_size], [fsb_entries],
      [fss_entries], [mt_entries], [max_cycles]: as the record fields.

    Omitted arguments keep the base's value, so refinements compose:
    [v ~base:(v ~sfence:false ()) ~mem_latency:500 ()].

    Raises [Invalid_argument] when the result would be an unbuildable
    machine: pipeline knobs per {!Fscope_cpu.Exec_config.validate},
    scope knobs per {!Fscope_core.Scope_unit.validate}, a
    non-positive memory latency, cycle cap or shard count, or a
    non-positive sampling window. *)
