(** Rendering of cycle-accounting profiles.

    Pure presentation over data the caller collected: per-core
    {!Cpi.t} tables from a finished run, the traced {!Metrics.t}
    registry (for per-fence-site, per-scope and spin-site counters),
    and the static site lists the caller extracted from the program
    image.  Keeping the extraction on the caller's side leaves this
    library free of any dependency on the ISA or machine layers.

    Both renderers print every static fence site — including sites
    that never stalled — and embed an explicit check that the CPI
    leaves sum to the independently-counted active cycles, so a
    reader can trust the shares without re-deriving them. *)

type fence_site = {
  core : int;  (** thread/core index owning the site *)
  pc : int;  (** static program counter of the fence instruction *)
  kind : string;  (** rendered fence kind, e.g. ["S-FENCE[cls].ss"] *)
}

type input = {
  label : string;  (** workload name *)
  config : string;  (** config tag, e.g. ["sfence"] / ["traditional"] / ["no-fence"] *)
  cycles : int;  (** machine cycles of the run *)
  timed_out : bool;
      (** the run hit its cycle cap — expected for ablations that break
          a workload's termination protocol (e.g. no-fence pst) *)
  cpi : Cpi.t array;  (** per-core cycle accounting *)
  core_active : int array;
      (** per-core active cycles from the independent legacy counter;
          the renderers check each core's CPI leaves sum to this *)
  metrics : Metrics.t option;
      (** traced registry; [None] for untraced runs, which omits the
          site/scope/spin tables but keeps the CPI stack *)
  fence_sites : fence_site list;  (** static fence sites, in program order *)
  cids : int list;  (** class ids with [Fs_start] sites in the program *)
  spin_pcs : (int * int) list;  (** static [(core, pc)] backward-edge sites *)
  spin_ff : (int * int * int) option;
      (** engine spin fast-forward counters [(sleeps, cycles_skipped,
          wakes)], taken from a matching untraced run — tracing disables
          the optimisation, so the traced run itself reports zero.
          [None] when the caller did not collect them (e.g. the
          optimisation is off in the profiled config). *)
}

type stall_summary = {
  episodes : int;
  stall_cycles : int;
  mean : float;
  max_floor : int;  (** floor of the highest non-empty log2 bucket *)
}

type site_row = {
  site : fence_site;
  commits : int;
  scoped_commits : int;
  stall : stall_summary;
}

val site_rows : input -> site_row list
(** Per-static-site attribution read back from the metrics registry
    ([core<i>/fence_pc<p>/...]); empty for untraced runs.  One row per
    static site, in program order — the table both renderers print and
    the {!Advisor} ranks. *)

val text : input -> string
(** Human-readable profile: aggregate CPI stack with shares and a
    sum check, per-core sums, fence-site / scope / spin tables. *)

val json : input -> string
(** The same data as a single-line JSON object
    (schema ["fence-scoping/profile/v2"]). *)
