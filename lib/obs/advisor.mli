(** Profile-guided fence advice: ranks static fence sites by the
    cycles expected back if their fence became scoped, and predicts
    the whole-run speedup of scoping them all.

    A pure analysis pass over {!Profile.input} data — it never runs
    anything.  Each core's unscoped fence-wait CPI cycles are split
    across that core's sites in proportion to observed per-site stall
    cycles; the residual cost a site still pays once scoped is taken
    from a scoped run of the same program when the caller supplies
    one (static sites align because the program image is identical).
    The whole-run prediction walks the per-core critical path:
    recovered cycles on a non-critical core don't shorten the run. *)

type confidence = High | Medium | Low

type advice = {
  core : int;
  pc : int;
  kind : string;  (** rendered fence kind at the site *)
  commits : int;
  episodes : int;  (** completed stall episodes observed at the site *)
  site_stall : int;  (** observed stall cycles at the site, subject run *)
  stall_share : float;  (** share of all observed site stalls, in [0,1] *)
  attributed : float;  (** unscoped fence-wait cycles attributed to the site *)
  residual : float;  (** modeled residual cost once scoped *)
  recovery : float;  (** [max 0 (attributed - residual)] *)
  confidence : confidence;
}

type t = {
  label : string;
  config : string;
  cycles : int;
  cores : int;
  modeled_residuals : bool;
      (** residuals taken from a scoped run; without one every residual
          is 0 and recoveries are upper bounds *)
  advice : advice list;  (** ranked by recovery, descending *)
  total_unscoped : int;
  total_recovery : float;
  predicted_speedup : float;
}

val analyze : ?scoped:Profile.input -> Profile.input -> t
(** Rank [input]'s fence sites.  [input] must come from a traced run
    (its [metrics] must be present) — raises [Failure] otherwise.
    [scoped] supplies the residual model; it should profile the same
    program under the scoped-fence configuration. *)

val predicted_speedup : ?scoped:Profile.input -> Profile.input -> float

val paper_speedups : (string * float) list
(** Per-workload S-Fence speedups from the paper's figures (Fig. 12
    peaks for the harness benchmarks, Fig. 13 whole-app gains for the
    rest), as calibrated in EXPERIMENTS.md.  Descending. *)

val ordering_violations :
  min_gap:float -> (string * float) list -> (string * float) list -> (string * string) list
(** Pairs on which two (name, score) lists disagree about order, where
    both lists separate the pair by more than [min_gap].  Pairs closer
    than the gap in either list are near-ties and count as agreement;
    names missing from the second list are skipped. *)

val text : t -> string
(** Ranked advice table with the prediction headline. *)

val json : t -> Fscope_util.Json.t
(** The same data as one JSON object
    (schema ["fence-scoping/advice/v1"]). *)
