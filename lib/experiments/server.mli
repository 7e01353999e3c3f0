(** The high-traffic server artefact: throughput (requests retired per
    kilocycle) and fence-stall tail distributions (p50/p90/p99 over
    the traced log2 [fence/stall_cycles] histogram) for the three
    server workloads under traditional, class-scoped and set-scoped
    fences.

    One evaluator measures every point, exact or sampled: one
    untraced run, the naive reference run on exact points only, and
    one traced run that records only the workload's latency and gauge
    drain markers (3 machine runs per exact point, 2 per sampled
    point).  Every exact point asserts engine/reference
    bit-identity, functional validation, and that the traced run is
    timing-neutral and dropped no marker, before it becomes a row, so
    a row is identical for any loop, any [--jobs] count and any host —
    BENCH_server.json can be diffed byte-for-byte. *)

type gauge_row = {
  gv_name : string;  (** short gauge label, e.g. ["queue_depth"] *)
  gv_samples : int;
  gv_p50 : int;
  gv_p90 : int;
  gv_p99 : int;
  gv_max : int;
      (** log2-bucket lower bounds over every occupancy transition the
          workload's {!Fscope_workloads.Gauges} sampler observed *)
}

type row = {
  sv_workload : string;
  sv_config : string;  (** ["T"], ["S"] or ["S-set"] *)
  sv_cycles : int;
  sv_requests : int;
  sv_rpk : float;  (** requests retired per 1000 simulated cycles *)
  sv_fence_share : float;  (** % of active cycles in the CPI fence bucket *)
  sv_stall_episodes : int;
  sv_stall_cycles : int;
  sv_stall_mean : float;
  sv_stall_p50 : int;
  sv_stall_p90 : int;
  sv_stall_p99 : int;
  sv_stall_max : int;
      (** percentiles are log2-bucket lower bounds — the histogram's
          native resolution *)
  sv_lat_samples : int;
  sv_lat_p50 : int;
  sv_lat_p90 : int;
  sv_lat_p99 : int;
  sv_lat_max : int;
      (** exact nearest-rank percentiles over per-request
          inject-to-retire latencies (simulated cycles), from the
          point's one traced run; zero samples on workloads without
          latency markers *)
  sv_gauge : gauge_row option;
      (** live data-structure occupancy (queue depth / deque occupancy /
          limbo-ring length), folded from the same traced run's gauge
          markers; [None] on workloads without a gauge sampler and on
          sampled points *)
  sv_sampled : bool;
      (** interval-sampled point: [sv_cycles] / [sv_rpk] /
          [sv_fence_share] are extrapolated estimates (DESIGN §15),
          request counts and validation are exact, and the traced
          stall-tail columns are zero *)
  sv_lat_sampled : bool;
      (** the latency columns come from the measured-window extraction:
          the point's traced sampled run keeps the inject/retire drain
          markers, and only request pairs with both endpoints inside
          ONE measured detailed window count — exact latencies over the
          covered subset ([sv_lat_samples]), not estimates *)
}

val run : ?quick:bool -> unit -> row list
(** Ten points (3 workloads x T/S/S-set, plus one 64-core MPMC scale
    point), fanned across {!Exp_run.jobs} domains; results are in
    point order and independent of the job count. *)

val sampled_sampling : quick:bool -> Fscope_machine.Config.sampling
(** The sampling schedule the sampled points run under:
    {!Fscope_machine.Config.sampling_default} at full size, a shrunken
    schedule in quick mode (quick points are smaller than the default
    detailed window, so the estimator would otherwise never leave its
    first window). *)

val run_sampled : ?quick:bool -> unit -> row list
(** The interval-sampled scale points: the 64-core MPMC machine again
    (sampled, so the bench harness can quote the error and wall-clock
    win against the detailed row) and the 256-core MPMC machine, which
    only exists sampled.  Rows carry [sv_sampled = true], validate
    functionally like every other point, and fill the latency columns
    from the measured-window extraction ([sv_lat_sampled]).  The
    traced run's cycle estimate must reproduce the untraced one
    exactly. *)

val table : row list -> Fscope_util.Table.t

val gains : row list -> (string * string * float) list
(** [(workload, config, throughput gain over that workload's T row)]
    for the scoped configs. *)

val json : quick:bool -> jobs:int -> row list -> Fscope_util.Json.t
(** The BENCH_server.json document
    (schema ["fence-scoping/bench-server/v5"] — v4 plus a per-row
    ["latency_sampled"] flag marking rows whose latency columns come
    from the measured-window extraction). *)
