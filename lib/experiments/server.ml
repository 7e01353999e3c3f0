(* The high-traffic server artefact: the three server workloads
   (MPMC dispatch, cache with epoch reclamation, work stealing) under
   traditional fences, class-scoped S-Fence and set-scoped S-Fence.

   Unlike the figure experiments, which quote whole-run cycle counts,
   the server suite reports *throughput* (requests retired per
   kilocycle of simulated time) and the *tail* of the per-episode
   fence-stall distribution (p50/p90/p99 over the traced
   [fence/stall_cycles] histogram) — the quantities a server operator
   would ask about.

   Every point is triple-checked before it lands in a row:
   - the event-horizon engine and the naive reference loop must agree
     bit-for-bit (spin fast-forward counters excluded);
   - the workload's functional validation must pass;
   - the traced (profiled) run must reproduce the untraced cycle count
     exactly, since tracing is timing-neutral by contract.
   A row is therefore identical no matter which loop, job count or
   host produced it, which is what lets CI diff BENCH_server.json. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Table = Fscope_util.Table
module Obs = Fscope_obs
module W = Fscope_workloads

type gauge_row = {
  gv_name : string;  (* short gauge label, e.g. "queue_depth" *)
  gv_samples : int;
  gv_p50 : int;
  gv_p90 : int;
  gv_p99 : int;
  gv_max : int;  (* floors of the log2 occupancy histogram *)
}

type row = {
  sv_workload : string;
  sv_config : string;
  sv_cycles : int;
  sv_requests : int;
  sv_rpk : float;  (* requests retired per 1000 simulated cycles *)
  sv_fence_share : float;  (* % of active cycles in the CPI fence bucket *)
  sv_stall_episodes : int;
  sv_stall_cycles : int;
  sv_stall_mean : float;
  sv_stall_p50 : int;
  sv_stall_p90 : int;
  sv_stall_p99 : int;
  sv_stall_max : int;  (* floors of the log2 stall histogram *)
  sv_lat_samples : int;
  sv_lat_p50 : int;
  sv_lat_p90 : int;
  sv_lat_p99 : int;
  sv_lat_max : int;  (* exact per-request inject-to-retire latencies *)
  sv_gauge : gauge_row option;  (* live occupancy gauge, when the workload has one *)
  sv_sampled : bool;  (* interval-sampled point: cycle metrics are estimates *)
  sv_lat_sampled : bool;  (* latencies from measured-window pairs only *)
}

type point = {
  pt_workload : string;
  pt_config : string;
  pt_requests : int;
  pt_machine : Config.t;
  pt_build : unit -> W.Workload.t;
  (* [Some threads] on workloads with per-request latency markers
     (currently server-mpmc): run an extra drain-filtered trace and
     extract inject-to-retire latencies. *)
  pt_lat_threads : int option;
}

(* Nearest-rank percentile over the log2-bucket histogram, reported as
   the bucket lower bound (the resolution the histogram actually
   has). *)
let percentile (h : Obs.Metrics.hist_snapshot) q =
  if h.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let rec go seen = function
      | [] -> 0
      | (floor, c) :: rest ->
        let seen = seen + c in
        if seen >= rank then floor else go seen rest
    in
    go 0 h.buckets
  end

let max_floor (h : Obs.Metrics.hist_snapshot) =
  List.fold_left (fun acc (floor, _) -> max acc floor) 0 h.buckets

(* Exact nearest-rank percentile over an ascending sample list. *)
let rank_percentile sorted q =
  match sorted with
  | [] -> 0
  | _ ->
    let n = List.length sorted in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    List.nth sorted (rank - 1)

(* Per-request latencies from a dedicated traced run that retains only
   the workload's inject/retire drain markers.  The filtered ring keeps
   at most one event per marker, so even a 10k-request point fits with
   room to spare; tracing stays timing-neutral, which we assert. *)
let request_latencies pt program ~threads ~cycles =
  let requests = pt.pt_requests in
  let keep = W.Mpmc.keep_latency ~requests ~threads program in
  let trace =
    Obs.Trace.create
      ~ring_capacity:(max 1024 (requests + 2))
      ~keep
      ~cores:(Fscope_isa.Program.thread_count program)
      ()
  in
  let r = Machine.run ~obs:trace pt.pt_machine program in
  if r.Machine.cycles <> cycles then
    failwith
      (Printf.sprintf "server %s (%s): latency trace not timing-neutral"
         pt.pt_workload pt.pt_config);
  if Obs.Trace.dropped trace <> 0 then
    failwith
      (Printf.sprintf "server %s (%s): latency trace dropped markers" pt.pt_workload
         pt.pt_config);
  W.Mpmc.latency_of_events ~requests ~threads program (Obs.Trace.events trace)

(* Live occupancy gauge (queue depth / deque occupancy / limbo length)
   from a second dedicated drain-marker trace, folded post-hoc in the
   trace's deterministic order — same timing-neutrality and no-drop
   contract as the latency trace.  The 64-core scale point reuses the
   base workload's sampler. *)
let workload_gauge pt program ~cycles =
  let name =
    if pt.pt_workload = "server-mpmc-64" then "server-mpmc" else pt.pt_workload
  in
  match W.Gauges.for_workload ~name program with
  | None -> None
  | Some g ->
    let trace =
      Obs.Trace.create
        ~ring_capacity:(max 1024 ((4 * pt.pt_requests) + 64))
        ~keep:g.W.Gauges.keep
        ~cores:(Fscope_isa.Program.thread_count program)
        ()
    in
    let r = Machine.run ~obs:trace pt.pt_machine program in
    if r.Machine.cycles <> cycles then
      failwith
        (Printf.sprintf "server %s (%s): gauge trace not timing-neutral"
           pt.pt_workload pt.pt_config);
    if Obs.Trace.dropped trace <> 0 then
      failwith
        (Printf.sprintf "server %s (%s): gauge trace dropped markers" pt.pt_workload
           pt.pt_config);
    let m = Obs.Metrics.create () in
    g.W.Gauges.fold m (Obs.Trace.events trace);
    let h =
      match Obs.Metrics.find_histogram m g.W.Gauges.hist with
      | Some h -> h
      | None -> { Obs.Metrics.count = 0; sum = 0; buckets = [] }
    in
    Some
      {
        gv_name = g.W.Gauges.label;
        gv_samples = h.Obs.Metrics.count;
        gv_p50 = percentile h 0.50;
        gv_p90 = percentile h 0.90;
        gv_p99 = percentile h 0.99;
        gv_max = max_floor h;
      }

let eval pt =
  let w = pt.pt_build () in
  let program = w.W.Workload.program in
  let engine_r = Machine.run pt.pt_machine program in
  let naive_r = Machine.run_reference pt.pt_machine program in
  if not (Machine.same_outcome engine_r naive_r) then
    failwith
      (Printf.sprintf "server %s (%s): engine/reference mismatch" pt.pt_workload
         pt.pt_config);
  (match w.W.Workload.validate engine_r with
  | Ok () -> ()
  | Error msg ->
    failwith
      (Printf.sprintf "server %s (%s): validation failed — %s" pt.pt_workload
         pt.pt_config msg));
  let input = Profiling.profile ~label:pt.pt_config pt.pt_machine w in
  if input.Obs.Profile.cycles <> engine_r.Machine.cycles then
    failwith
      (Printf.sprintf "server %s (%s): traced run not timing-neutral" pt.pt_workload
         pt.pt_config);
  let active = Array.fold_left ( + ) 0 input.Obs.Profile.core_active in
  let fence =
    Array.fold_left (fun acc c -> acc + Obs.Cpi.fence_cycles c) 0 input.Obs.Profile.cpi
  in
  let h =
    match input.Obs.Profile.metrics with
    | Some m -> (
      match Obs.Metrics.find_histogram m "fence/stall_cycles" with
      | Some h -> h
      | None -> { Obs.Metrics.count = 0; sum = 0; buckets = [] })
    | None -> failwith "server: traced run carried no metrics"
  in
  let lats =
    match pt.pt_lat_threads with
    | None -> []
    | Some threads ->
      request_latencies pt program ~threads ~cycles:engine_r.Machine.cycles
  in
  {
    sv_workload = pt.pt_workload;
    sv_config = pt.pt_config;
    sv_cycles = engine_r.Machine.cycles;
    sv_requests = pt.pt_requests;
    sv_rpk =
      1000. *. float_of_int pt.pt_requests /. float_of_int engine_r.Machine.cycles;
    sv_fence_share = 100. *. Fscope_util.Stats.ratio ~num:fence ~den:active;
    sv_stall_episodes = h.Obs.Metrics.count;
    sv_stall_cycles = h.Obs.Metrics.sum;
    sv_stall_mean =
      (if h.Obs.Metrics.count = 0 then 0.
       else float_of_int h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count);
    sv_stall_p50 = percentile h 0.50;
    sv_stall_p90 = percentile h 0.90;
    sv_stall_p99 = percentile h 0.99;
    sv_stall_max = max_floor h;
    sv_lat_samples = List.length lats;
    sv_lat_p50 = rank_percentile lats 0.50;
    sv_lat_p90 = rank_percentile lats 0.90;
    sv_lat_p99 = rank_percentile lats 0.99;
    sv_lat_max = (match List.rev lats with [] -> 0 | m :: _ -> m);
    sv_gauge = workload_gauge pt program ~cycles:engine_r.Machine.cycles;
    sv_sampled = false;
    sv_lat_sampled = false;
  }

(* Window-restricted per-request latencies for a sampled point: a
   second, traced sampled run (sequential detailed windows — the
   estimator is bit-identical for any shard count, which we assert via
   the cycle estimate) keeps only the inject/retire drain markers, and
   only pairs whose BOTH endpoints landed inside one measured window
   survive — a pair spanning a functional gap would count unsimulated
   fast-forward cycles.  The tail is thus exact over the covered
   requests rather than silently absent. *)
let sampled_latencies pt program ~threads ~cycles =
  let requests = pt.pt_requests in
  let keep = W.Mpmc.keep_latency ~requests ~threads program in
  let trace =
    Obs.Trace.create
      ~ring_capacity:(max 1024 (requests + 2))
      ~keep
      ~cores:(Fscope_isa.Program.thread_count program)
      ()
  in
  let rt = Machine.run ~obs:trace pt.pt_machine program in
  if rt.Machine.cycles <> cycles then
    failwith
      (Printf.sprintf "server %s (%s): sampled latency trace diverged from estimate"
         pt.pt_workload pt.pt_config);
  if Obs.Trace.dropped trace <> 0 then
    failwith
      (Printf.sprintf "server %s (%s): sampled latency trace dropped markers"
         pt.pt_workload pt.pt_config);
  W.Mpmc.latency_of_events_windowed ~requests ~threads
    ~windows:rt.Machine.sample_windows program (Obs.Trace.events trace)

(* Sampled points trade the per-point triple-check for wall-clock: the
   engine-vs-reference and timing-neutrality assertions have no
   meaning under sampling (the estimator IS the engine), but
   functional validation still holds exactly — the fast-forward legs
   execute real instructions, so the retired requests and final memory
   are real.  The fence share comes straight from the run's
   extrapolated CPI stacks; stall tails need a full trace, so those
   columns stay zero; latency tails come from the measured-window
   extraction above, flagged [sv_lat_sampled]. *)
let eval_sampled pt =
  let w = pt.pt_build () in
  let program = w.W.Workload.program in
  let r = Machine.run pt.pt_machine program in
  if r.Machine.timed_out then
    failwith
      (Printf.sprintf "server %s (%s): sampled run timed out" pt.pt_workload
         pt.pt_config);
  (match w.W.Workload.validate r with
  | Ok () -> ()
  | Error msg ->
    failwith
      (Printf.sprintf "server %s (%s): sampled validation failed — %s" pt.pt_workload
         pt.pt_config msg));
  let active = Machine.total_active_cycles r in
  let fence =
    Array.fold_left (fun acc c -> acc + Obs.Cpi.fence_cycles c) 0 r.Machine.core_cpi
  in
  let lats =
    match pt.pt_lat_threads with
    | None -> []
    | Some threads -> sampled_latencies pt program ~threads ~cycles:r.Machine.cycles
  in
  {
    sv_workload = pt.pt_workload;
    sv_config = pt.pt_config;
    sv_cycles = r.Machine.cycles;
    sv_requests = pt.pt_requests;
    sv_rpk = 1000. *. float_of_int pt.pt_requests /. float_of_int r.Machine.cycles;
    sv_fence_share = 100. *. Fscope_util.Stats.ratio ~num:fence ~den:active;
    sv_stall_episodes = 0;
    sv_stall_cycles = 0;
    sv_stall_mean = 0.;
    sv_stall_p50 = 0;
    sv_stall_p90 = 0;
    sv_stall_p99 = 0;
    sv_stall_max = 0;
    sv_lat_samples = List.length lats;
    sv_lat_p50 = rank_percentile lats 0.50;
    sv_lat_p90 = rank_percentile lats 0.90;
    sv_lat_p99 = rank_percentile lats 0.99;
    sv_lat_max = (match List.rev lats with [] -> 0 | m :: _ -> m);
    sv_gauge = None;
    sv_sampled = true;
    sv_lat_sampled = pt.pt_lat_threads <> None;
  }

(* Three machine configurations per workload.  The set-scope point
   recompiles the workload with S-FENCE[set] sites, so it is a
   (program, machine) pair of its own. *)
let points ~quick =
  let threads = if quick then 4 else 8 in
  let per = if quick then 8 else 24 in
  let steal_reqs = if quick then 24 else 96 in
  (* Server machines honour the global --shard-domains knob: every
     point then runs the domain-sharded engine, and eval's
     engine-vs-reference check becomes a sharded-vs-sequential
     bit-identity assertion. *)
  let shard c = Config.v ~base:c ~shard_domains:(Exp_run.shard_domains ()) () in
  let t = shard (Exp_run.t_config Config.default) in
  let s = shard (Exp_run.s_config Config.default) in
  let per_workload ?lat_threads name requests build =
    [
      (name, "T", t, (fun () -> build `Class));
      (name, "S", s, (fun () -> build `Class));
      (name, "S-set", s, (fun () -> build `Set));
    ]
    |> List.map (fun (pt_workload, pt_config, pt_machine, pt_build) ->
           {
             pt_workload;
             pt_config;
             pt_machine;
             pt_build;
             pt_requests = requests;
             pt_lat_threads = lat_threads;
           })
  in
  (* The scale point: one 64-core MPMC machine, the shape the sharded
     engine exists for.  Quick keeps the request count small so the
     point still runs everywhere; full is the 64-core x 10k-request
     configuration from the issue.  Sharding comes from the global
     --shard-domains knob via the config, like every other point. *)
  let big_threads = 64 in
  let big_per = if quick then 4 else 625 in
  per_workload "server-mpmc"
    (W.Mpmc.requests ~threads ~per_producer:per ())
    ~lat_threads:threads
    (fun scope -> W.Mpmc.make ~threads ~per_producer:per ~scope ())
  @ per_workload "server-cache"
      (threads * per)
      (fun scope -> W.Cache_server.make ~threads ~per_thread:per ~scope ())
  @ per_workload "server-steal" steal_reqs (fun scope ->
        W.Steal.make ~workers:threads ~requests:steal_reqs ~scope ())
  @ [
      {
        pt_workload = "server-mpmc-64";
        pt_config = "S";
        pt_machine = s;
        pt_requests = W.Mpmc.requests ~threads:big_threads ~per_producer:big_per ();
        pt_build =
          (fun () ->
            W.Mpmc.make ~threads:big_threads ~per_producer:big_per ~scope:`Class ());
        pt_lat_threads = Some big_threads;
      };
    ]

let run ?(quick = false) () =
  Array.to_list
    (Exp_run.parmap ~jobs:(Exp_run.jobs ()) eval (Array.of_list (points ~quick)))

(* Quick points are a few thousand cycles end to end — smaller than
   the default 10k-cycle detailed window — so quick mode shrinks the
   sampling schedule until the estimator actually alternates. *)
let sampled_sampling ~quick =
  if quick then { Config.warmup = 200; detailed = 2_000; ff_instrs = 2_000 }
  else Config.sampling_default

(* The sampled scale points: the 64-core MPMC machine again (so the
   harness can quote sampled-vs-detailed error and wall-clock win
   against the detailed row above), and the 256-core machine — which
   only exists sampled; a detailed 256-core run is what the estimator
   is for. *)
let sampled_points ~quick =
  (* Sampled points honour --shard-domains too: the untraced run then
     shards its detailed windows, while the traced latency run stays
     sequential — the cycle-estimate assertion in [sampled_latencies]
     doubles as a sharded/sequential sampled bit-identity check. *)
  let s =
    Config.v
      ~base:(Exp_run.s_config Config.default)
      ~shard_domains:(Exp_run.shard_domains ())
      ~sampling:(Some (sampled_sampling ~quick))
      ()
  in
  let point threads per =
    {
      pt_workload = Printf.sprintf "server-mpmc-%d" threads;
      pt_config = "S-sampled";
      pt_machine = s;
      pt_requests = W.Mpmc.requests ~threads ~per_producer:per ();
      pt_build = (fun () -> W.Mpmc.make ~threads ~per_producer:per ~scope:`Class ());
      pt_lat_threads = Some threads;
    }
  in
  [ point 64 (if quick then 4 else 625); point 256 (if quick then 1 else 156) ]

let run_sampled ?(quick = false) () = List.map eval_sampled (sampled_points ~quick)

let table rows =
  let t =
    Table.create ~title:"Server suite — throughput and fence-stall tails"
      ~header:
        [
          "workload"; "config"; "cycles"; "reqs"; "req/kcyc"; "fence%"; "stalls";
          "p50"; "p90"; "p99"; "max"; "lat p50"; "lat p90"; "lat p99"; "gauge";
          "g-p50"; "g-p99"; "g-max";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.sv_workload;
          r.sv_config;
          string_of_int r.sv_cycles;
          string_of_int r.sv_requests;
          Printf.sprintf "%.2f" r.sv_rpk;
          Printf.sprintf "%.1f" r.sv_fence_share;
          string_of_int r.sv_stall_episodes;
          string_of_int r.sv_stall_p50;
          string_of_int r.sv_stall_p90;
          string_of_int r.sv_stall_p99;
          string_of_int r.sv_stall_max;
          (if r.sv_lat_samples = 0 then "-" else string_of_int r.sv_lat_p50);
          (if r.sv_lat_samples = 0 then "-" else string_of_int r.sv_lat_p90);
          (if r.sv_lat_samples = 0 then "-" else string_of_int r.sv_lat_p99);
          (match r.sv_gauge with None -> "-" | Some g -> g.gv_name);
          (match r.sv_gauge with None -> "-" | Some g -> string_of_int g.gv_p50);
          (match r.sv_gauge with None -> "-" | Some g -> string_of_int g.gv_p99);
          (match r.sv_gauge with None -> "-" | Some g -> string_of_int g.gv_max);
        ])
    rows;
  t

(* Throughput gain of a scoped config over the same workload's T row. *)
let gains rows =
  List.filter_map
    (fun r ->
      if r.sv_config = "T" then None
      else
        List.find_opt
          (fun b -> b.sv_workload = r.sv_workload && b.sv_config = "T")
          rows
        |> Option.map (fun b -> (r.sv_workload, r.sv_config, r.sv_rpk /. b.sv_rpk)))
    rows

let json ~quick ~jobs rows =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"fence-scoping/bench-server/v5\",\n";
  add "  \"quick\": %b,\n" quick;
  add "  \"jobs\": %d,\n" jobs;
  add "  \"rows\": [";
  List.iteri
    (fun i r ->
      add
        "%s\n    {\"workload\": %S, \"config\": %S, \"sim_cycles\": %d, \
         \"requests\": %d, \"requests_per_kcycle\": %.4f, \"fence_share_pct\": %.2f, \
         \"stall_episodes\": %d, \"stall_cycles\": %d, \"stall_mean\": %.2f, \
         \"stall_p50\": %d, \"stall_p90\": %d, \"stall_p99\": %d, \"stall_max\": %d, \
         \"latency_samples\": %d, \"latency_p50\": %d, \"latency_p90\": %d, \
         \"latency_p99\": %d, \"latency_max\": %d, \"sampled\": %b, \
         \"latency_sampled\": %b%s}"
        (if i = 0 then "" else ",")
        r.sv_workload r.sv_config r.sv_cycles r.sv_requests r.sv_rpk r.sv_fence_share
        r.sv_stall_episodes r.sv_stall_cycles r.sv_stall_mean r.sv_stall_p50
        r.sv_stall_p90 r.sv_stall_p99 r.sv_stall_max r.sv_lat_samples r.sv_lat_p50
        r.sv_lat_p90 r.sv_lat_p99 r.sv_lat_max r.sv_sampled r.sv_lat_sampled
        (match r.sv_gauge with
        | None -> ""
        | Some g ->
          Printf.sprintf
            ", \"gauge\": {\"name\": %S, \"samples\": %d, \"p50\": %d, \"p90\": %d, \
             \"p99\": %d, \"max\": %d}"
            g.gv_name g.gv_samples g.gv_p50 g.gv_p90 g.gv_p99 g.gv_max))
    rows;
  add "\n  ],\n";
  add "  \"throughput_gain_over_T\": [";
  List.iteri
    (fun i (w, c, g) ->
      add "%s\n    {\"workload\": %S, \"config\": %S, \"gain\": %.4f}"
        (if i = 0 then "" else ",")
        w c g)
    (gains rows);
  add "\n  ]\n}\n";
  Buffer.contents buf
