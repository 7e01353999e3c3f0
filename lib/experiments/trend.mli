(** Bench-trajectory differ over the BENCH_* artefact family.

    Loads the schema versions the bench emits — BENCH_engine v4,
    BENCH_profile v2 and BENCH_server v5 — into one uniform shape — points keyed
    ["server/<workload>/<config>"]-style, each carrying named metrics
    with a better-direction and a gate class — then diffs two
    artefacts point by point.  Deterministic metrics (simulated
    cycles, requests per kilocycle, fence share, stall tails) gate at
    [threshold]; wall-clock metrics are advisory unless
    [wall_threshold] is supplied; gauge summaries never gate.  Two
    artefacts only gate against each other when their ["quick"] flags
    agree (both absent counts as agreement) — a quick run diffed
    against a full-size artefact renders informational rows only. *)

type direction = Higher_better | Lower_better

type gate =
  | Gate_always  (** deterministic metric: gates at [threshold] *)
  | Gate_wall  (** wall-clock: gates only when [wall_threshold] is given *)
  | Gate_never
      (** context — gauge summaries, shard barrier/elision counters,
          placeholder latency columns: never gates *)

type metric = {
  m_name : string;
  m_value : float;
  m_dir : direction;
  m_gate : gate;
}

type point = {
  p_key : string;
  p_metrics : metric list;
}

type artefact = {
  a_file : string;
  a_schema : string;
  a_quick : bool option;  (** the artefact's "quick" flag, when present *)
  a_points : point list;
}

val load : file:string -> Fscope_util.Json.t -> artefact
(** Interpret a parsed artefact; [file] labels error messages and the
    rendered table.  Raises [Failure] on a missing field or on any
    other schema, older versions of the three included. *)

val load_file : string -> artefact

type delta = {
  d_key : string;
  d_metric : string;
  d_base : float;
  d_cur : float;
  d_worse_pct : float;
      (** signed percent change toward the metric's worse direction:
          positive means the current run is worse than the baseline *)
  d_gate : gate;
}

type verdict = {
  v_comparable : bool;  (** quick flags agree — regressions can gate *)
  v_deltas : delta list;
  v_regressions : delta list;  (** always empty when not comparable *)
  v_missing : string list;  (** point keys present only in the baseline *)
  v_added : string list;  (** point keys present only in the current run *)
}

val diff :
  ?threshold:float ->
  ?wall_threshold:float ->
  baseline:artefact ->
  current:artefact ->
  unit ->
  verdict
(** Compare matching points.  [threshold] (default 5.0) is the percent
    past which a deterministic metric's worsening counts as a
    regression; [wall_threshold] does the same for wall-clock metrics
    when given. *)

val table : verdict:verdict -> baseline:artefact -> current:artefact -> Fscope_util.Table.t
(** The per-metric trend table, regressions flagged. *)

val summary_line : verdict:verdict -> baseline:artefact -> current:artefact -> string
