(* The high-traffic server artefact: the three server workloads
   (MPMC dispatch, cache with epoch reclamation, work stealing) under
   traditional fences, class-scoped S-Fence and set-scoped S-Fence.

   Unlike the figure experiments, which quote whole-run cycle counts,
   the server suite reports *throughput* (requests retired per
   kilocycle of simulated time) and the *tail* of the per-episode
   fence-stall distribution (p50/p90/p99 over the traced
   [fence/stall_cycles] histogram) — the quantities a server operator
   would ask about.

   Every exact point is triple-checked before it lands in a row:
   - the event-horizon engine and the naive reference loop must agree
     bit-for-bit (spin fast-forward counters excluded);
   - the workload's functional validation must pass;
   - the one traced run must reproduce the untraced cycle count
     exactly, since tracing is timing-neutral by contract, and must
     drop none of the markers it keeps.
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
     (currently server-mpmc): the traced run also keeps those markers
     and the row gets inject-to-retire latencies. *)
  pt_lat_threads : int option;
}

(* Exact nearest-rank percentile over an ascending sample list. *)
let rank_percentile sorted q =
  match sorted with
  | [] -> 0
  | _ ->
    let n = List.length sorted in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
    List.nth sorted (rank - 1)

let empty_hist = { Obs.Metrics.count = 0; sum = 0; buckets = [] }

let hist_of metrics name =
  Option.value ~default:empty_hist (Obs.Metrics.find_histogram metrics name)

(* One evaluator for exact and sampled points.  Each point makes one
   untraced run (cycles, CPI fence share, validation), the naive
   reference run on exact points only, and one traced run whose drain
   predicate accepts exactly the workload's drain markers: the inject /
   retire markers of the latency extraction and the gauge sampler's
   occupancy markers, and records no other event.  That trace must
   reproduce the untraced cycle count (tracing is timing-neutral) and
   must drop nothing.  The predicate does not touch the metrics
   registry, so the [fence/stall_cycles] histogram still counts every
   stall episode.

   Sampled points skip the reference run (the estimator IS the
   engine), leave the stall columns zero (the registry only saw the
   measured windows) and carry no gauge; functional validation holds
   exactly, because the fast-forward legs execute real instructions.
   Their latencies keep only request pairs whose BOTH endpoints landed
   inside one measured window — a pair spanning a functional gap would
   count unsimulated fast-forward cycles — so the tail is exact over
   the covered requests, flagged [sv_lat_sampled]. *)
let eval pt =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        failwith (Printf.sprintf "server %s (%s): %s" pt.pt_workload pt.pt_config msg))
      fmt
  in
  let sampled = pt.pt_machine.Config.sampling <> None in
  let w = pt.pt_build () in
  let program = w.W.Workload.program in
  let r = Machine.run pt.pt_machine program in
  if sampled then (if r.Machine.timed_out then fail "sampled run timed out")
  else if not (Machine.same_outcome r (Machine.run_reference pt.pt_machine program))
  then fail "engine/reference mismatch";
  (match w.W.Workload.validate r with
  | Ok () -> ()
  | Error msg -> fail "validation failed — %s" msg);
  let requests = pt.pt_requests in
  let gauge =
    if sampled then None
    else W.Gauges.for_workload ~name:w.W.Workload.name program
  in
  let accepts =
    Option.to_list
      (Option.map
         (fun threads -> W.Mpmc.keep_latency ~requests ~threads program)
         pt.pt_lat_threads)
    @ Option.to_list (Option.map (fun g -> g.W.Gauges.drains) gauge)
  in
  let drains ~addr ~value = List.exists (fun k -> k ~addr ~value) accepts in
  (* A request leaves at most one marker of each family; gauge samplers
     also follow per-thread structures, so they get more headroom. *)
  let ring_capacity =
    max 1024 (if gauge = None then requests + 2 else (4 * requests) + 64)
  in
  let trace =
    Obs.Trace.create ~ring_capacity ~drains
      ~cores:(Fscope_isa.Program.thread_count program)
      ()
  in
  let traced = Machine.run ~obs:trace pt.pt_machine program in
  if traced.Machine.cycles <> r.Machine.cycles then fail "trace not timing-neutral";
  if Obs.Trace.dropped trace <> 0 then fail "trace dropped markers";
  let events = Obs.Trace.iter_events trace in
  let metrics = Obs.Trace.metrics trace in
  let h = if sampled then empty_hist else hist_of metrics "fence/stall_cycles" in
  let lats =
    match pt.pt_lat_threads with
    | None -> []
    | Some threads ->
      let windows =
        if sampled then traced.Machine.sample_windows else [ (0, traced.Machine.cycles) ]
      in
      W.Mpmc.latency_of_events ~requests ~threads ~windows program events
  in
  let fence =
    Array.fold_left (fun acc c -> acc + Obs.Cpi.fence_cycles c) 0 r.Machine.core_cpi
  in
  let pct = Obs.Metrics.hist_percentile in
  {
    sv_workload = pt.pt_workload;
    sv_config = pt.pt_config;
    sv_cycles = r.Machine.cycles;
    sv_requests = requests;
    sv_rpk = 1000. *. float_of_int requests /. float_of_int r.Machine.cycles;
    sv_fence_share =
      100. *. Fscope_util.Stats.ratio ~num:fence ~den:(Machine.total_active_cycles r);
    sv_stall_episodes = h.Obs.Metrics.count;
    sv_stall_cycles = h.Obs.Metrics.sum;
    sv_stall_mean =
      (if h.Obs.Metrics.count = 0 then 0.
       else float_of_int h.Obs.Metrics.sum /. float_of_int h.Obs.Metrics.count);
    sv_stall_p50 = pct h 0.50;
    sv_stall_p90 = pct h 0.90;
    sv_stall_p99 = pct h 0.99;
    sv_stall_max = Obs.Metrics.hist_max_floor h;
    sv_lat_samples = List.length lats;
    sv_lat_p50 = rank_percentile lats 0.50;
    sv_lat_p90 = rank_percentile lats 0.90;
    sv_lat_p99 = rank_percentile lats 0.99;
    sv_lat_max = (match List.rev lats with [] -> 0 | m :: _ -> m);
    sv_gauge =
      Option.map
        (fun g ->
          g.W.Gauges.fold metrics events;
          let gh = hist_of metrics g.W.Gauges.hist in
          {
            gv_name = g.W.Gauges.label;
            gv_samples = gh.Obs.Metrics.count;
            gv_p50 = pct gh 0.50;
            gv_p90 = pct gh 0.90;
            gv_p99 = pct gh 0.99;
            gv_max = Obs.Metrics.hist_max_floor gh;
          })
        gauge;
    sv_sampled = sampled;
    sv_lat_sampled = sampled && pt.pt_lat_threads <> None;
  }

(* Three machine configurations per workload.  The set-scope point
   recompiles the workload with S-FENCE[set] sites, so it is a
   (program, machine) pair of its own. *)
let points ~quick =
  let threads = if quick then 4 else 8 in
  let per = if quick then 8 else 24 in
  let steal_reqs = if quick then 24 else 96 in
  let t = Exp_run.t_config Config.default in
  let s = Exp_run.s_config Config.default in
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
  (* The scale point: one 64-core MPMC machine.  Quick keeps the
     request count small so the point still runs everywhere; full is
     the 64-core x 10k-request configuration from the issue. *)
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
  Array.to_list (Exp_run.parmap ~jobs:(Exp_run.jobs ()) eval (Array.of_list (points ~quick)))

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
  let s =
    Config.v ~base:(Exp_run.s_config Config.default) ~sampling:(Some (sampled_sampling ~quick)) ()
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

let run_sampled ?(quick = false) () = List.map eval (sampled_points ~quick)

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

module Json = Fscope_util.Json

let row_json r =
  let gauge g =
    Json.Obj
      [
        ("name", Json.Str g.gv_name);
        ("samples", Json.Int g.gv_samples);
        ("p50", Json.Int g.gv_p50);
        ("p90", Json.Int g.gv_p90);
        ("p99", Json.Int g.gv_p99);
        ("max", Json.Int g.gv_max);
      ]
  in
  Json.Obj
    ([
       ("workload", Json.Str r.sv_workload);
       ("config", Json.Str r.sv_config);
       ("sim_cycles", Json.Int r.sv_cycles);
       ("requests", Json.Int r.sv_requests);
       ("requests_per_kcycle", Json.fixed 4 r.sv_rpk);
       ("fence_share_pct", Json.fixed 2 r.sv_fence_share);
       ("stall_episodes", Json.Int r.sv_stall_episodes);
       ("stall_cycles", Json.Int r.sv_stall_cycles);
       ("stall_mean", Json.fixed 2 r.sv_stall_mean);
       ("stall_p50", Json.Int r.sv_stall_p50);
       ("stall_p90", Json.Int r.sv_stall_p90);
       ("stall_p99", Json.Int r.sv_stall_p99);
       ("stall_max", Json.Int r.sv_stall_max);
       ("latency_samples", Json.Int r.sv_lat_samples);
       ("latency_p50", Json.Int r.sv_lat_p50);
       ("latency_p90", Json.Int r.sv_lat_p90);
       ("latency_p99", Json.Int r.sv_lat_p99);
       ("latency_max", Json.Int r.sv_lat_max);
       ("sampled", Json.Bool r.sv_sampled);
       ("latency_sampled", Json.Bool r.sv_lat_sampled);
     ]
    @ Option.fold ~none:[] ~some:(fun g -> [ ("gauge", gauge g) ]) r.sv_gauge)

let json ~quick ~jobs rows =
  let gain (w, c, g) =
    Json.Obj
      [ ("workload", Json.Str w); ("config", Json.Str c); ("gain", Json.fixed 4 g) ]
  in
  Json.Obj
    [
      ("schema", Json.Str "fence-scoping/bench-server/v5");
      ("quick", Json.Bool quick);
      ("jobs", Json.Int jobs);
      ("rows", Json.Arr (List.map row_json rows));
      ("throughput_gain_over_T", Json.Arr (List.map gain (gains rows)));
    ]
