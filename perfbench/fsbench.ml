(* fsbench: host-side performance benchmark of the fence-scoping
   simulator.

     fsbench --workload W --seed N --seconds S --trace 0|1 [--tiny]
             [--nproc P] [--commit C] [--spans-dir D]

   One workload per invocation.  A workload is a fixed list of points;
   each point is one simulation run (for advise-traced, one
   [fscope advise] flow).  The load is closed-loop: points run one
   after another, and the whole list ("a pass") repeats, after one
   unmeasured warm-up pass, until S host seconds have gone and at least
   [min_passes] times.  Every host time is a per-point median over
   passes, each pass's time divided by the host's slowdown measured
   right before and after it (see calib.ml).

   [--trace 0] prints the end-to-end metrics.  [--trace 1] runs half
   the passes untraced and half with spans recorded around every call
   into a layer, then the per-layer probes (the benchmark's own
   lockstep loop, naive reruns, traced-versus-untraced reruns, and on
   paper-exact the 64-core server points: sharded against sequential,
   and four interval-sampled traffic traces) and prints the per-layer
   metrics.

   Both modes check every point: its validator, and its
   simulated-statistics digest against [Machine.run_reference].
   paper-exact also checks the sharded 64-core point against the
   reference, and that a run resumed from a compact checkpoint taken
   from the sharded loop equals the uninterrupted one.  The last line
   of standard output is one JSON object
   {correct, attempted, failed, metrics}; any failed check makes the
   exit code 1. *)

module Registry = Fscope_workloads.Registry
module Workload = Fscope_workloads.Workload
module Mpmc = Fscope_workloads.Mpmc
module Pst = Fscope_workloads.Pst
module Ptc = Fscope_workloads.Ptc
module Machine = Fscope_machine.Machine
module Config = Fscope_machine.Config
module Checkpoint = Fscope_machine.Checkpoint
module Exp_run = Fscope_experiments.Exp_run
module Profiling = Fscope_experiments.Profiling
module Obs = Fscope_obs
module Json = Fscope_util.Json
module Program = Fscope_isa.Program
module Core = Fscope_cpu.Core
module Cpi = Fscope_obs.Cpi
module Hierarchy = Fscope_mem.Hierarchy

(* ---------------------------------------------------------------- *)
(* Command line *)

let workload_name = ref ""
let seed = ref 1
let seconds = ref 15.
let trace = ref false
let tiny = ref false
let nproc = ref (Domain.recommended_domain_count ())
let commit = ref "unknown"
let spans_dir = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (server traffic and pst/ptc graphs)");
      ("--seconds", Arg.Set_float seconds, "S host seconds of measured passes");
      ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1 per-layer traced pass");
      ("--tiny", Arg.Set tiny, " tiny sizes, for the benchmark's own tests");
      ("--nproc", Arg.Set_int nproc, "P online CPUs of the host");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded with the result");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR where the traced pass writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fsbench --workload NAME --seed N --seconds S --trace 0|1"

let min_passes = 3
let setup_repeats = 5
let shard_domains = max 1 (min 2 !nproc)
let now_ns = Lockstep.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_since t0)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b
let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------------------------------------------------------------- *)
(* Points *)

type kind =
  | Exact  (** one detailed [Machine.run] *)
  | Sampled  (** one interval-sampled [Machine.run] *)
  | Advise  (** [Profiling.advise_inputs] -> [Advisor.analyze], plus [Sink.summary] *)

type point = {
  label : string;
  kind : kind;
  config : Config.t;
  requests : int;  (** simulated requests the point retires; 0 off the server suite *)
  build : unit -> Workload.t;
}

let find name =
  match Registry.find name with
  | Some spec -> spec
  | None -> failwith (Registry.unknown_message name)

let registry_build name params () = Workload.build (find name) params
let params = Registry.default_params

(* pst and ptc expose their graph seed only through their own [make]. *)
let graph_build name ~nodes () =
  ignore (find name);
  match name with
  | "pst" -> Pst.make ~nodes ~seed:!seed ~scope:`Class ()
  | _ -> Ptc.make ~nodes ~seed:!seed ~scope:`Class ()

(* Sizes keep one pass to a few host seconds, so a run of the default
   length holds several passes; [--tiny] shrinks them for the tests. *)
let size ~tiny:t n = if !tiny then t else n

(* The paper's Table III machine. *)
let table_iii = Config.default

let paper_points () =
  let builds =
    [
      ("dekker", registry_build "dekker" { params with attempts = size ~tiny:4 10 });
      ( "spin-barrier",
        registry_build "spin-barrier"
          { params with rounds = Some (size ~tiny:2 4); threads = Some 8 } );
      ("pst", graph_build "pst" ~nodes:(size ~tiny:32 96));
      ("ptc", graph_build "ptc" ~nodes:(size ~tiny:16 40));
      ("barnes", registry_build "barnes" { params with size = Some (size ~tiny:8 24) });
      ("radiosity", registry_build "radiosity" { params with size = Some (size ~tiny:8 20) });
    ]
  in
  List.concat_map
    (fun (name, build) ->
      let point label config = { label = name ^ label; kind = Exact; config; requests = 0; build } in
      [ point "/T" (Exp_run.t_config table_iii); point "/S" (Exp_run.s_config table_iii) ])
    builds

let advise_points () =
  let config = Config.v ~spin_fastforward:false () in
  List.map
    (fun (name, p) ->
      { label = name; kind = Advise; config; requests = 0; build = registry_build name p })
    [
      ("dekker", { params with attempts = size ~tiny:2 6 });
      ("wsq", { params with rounds = Some (size ~tiny:1 2) });
      ("msn", { params with size = Some (size ~tiny:1 2) });
      ("harris", { params with size = Some 1 });
    ]

let server_threads () = size ~tiny:8 64

let server_point ~label ~kind ~per_producer ~traffic_seed config =
  let threads = server_threads () in
  {
    label;
    kind;
    config;
    requests = Mpmc.requests ~threads ~per_producer ();
    build =
      registry_build "server-mpmc"
        { params with threads = Some threads; size = Some per_producer; seed = traffic_seed };
  }

(* The 64-core server points.  They are not part of a pass: on a
   2-CPU host their host times spread too widely from run to run to
   gate on (see CHANGES.md), so paper-exact checks them once per run
   and the traced run measures their layers.  Four traffic traces
   derived from the seed run under the default sampling schedule. *)
let sampled_traces = 4

let sampled_points () =
  List.init sampled_traces (fun i ->
      server_point
        ~label:(Printf.sprintf "server-mpmc-64/sampled/%d" i)
        ~kind:Sampled ~per_producer:(size ~tiny:2 8)
        ~traffic_seed:((!seed * sampled_traces) + i)
        (Exp_run.sampled_config (Exp_run.s_config table_iii)))

(* The same machine split across domains, with barrier elision. *)
let sharded_point () =
  server_point ~label:"server-mpmc-64/sharded" ~kind:Exact ~per_producer:2 ~traffic_seed:!seed
    (Config.v ~base:(Exp_run.s_config table_iii) ~shard_domains ~elide_barriers:true ())

let workloads =
  [
    ("paper-exact", (paper_points, true));
    ("advise-traced", (advise_points, false));
  ]

(* ---------------------------------------------------------------- *)
(* Checks *)

let failures : string list ref = ref []
let attempted = ref 0
let failed = ref 0
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

(* Attempts one point: [f] runs and checks it.  A failed check or an
   exception counts the point as failed; [None] when it raised. *)
let checked label f =
  incr attempted;
  let before = List.length !failures in
  let v =
    try Some (f ())
    with e ->
      fail "%s: raised %s" label (Printexc.to_string e);
      None
  in
  if List.length !failures > before then incr failed;
  v

let validate label (w : Workload.t) (r : Machine.result) =
  if r.Machine.timed_out then fail "%s: timed out at %d cycles" label r.Machine.cycles;
  match w.Workload.validate r with
  | Ok () -> ()
  | Error msg -> fail "%s: validation failed: %s" label msg

(* The runs a point is checked against.  Advise points compare their
   traced S run with the S reference, and their T profile's cycles and
   CPI leaves with the T reference. *)
type reference = {
  digest : string;
      (** [Machine.run_reference]'s; empty for sampled points, whose
          cycles are estimates, so only their validator applies *)
  s_ref : Machine.result option;
  t_ref : Machine.result option;
  naive_s : float;  (** host seconds of the reference runs *)
}

let reference_of p (w : Workload.t) =
  let program = w.Workload.program in
  let reference config = time (fun () -> Machine.run_reference config program) in
  match p.kind with
  | Sampled -> { digest = ""; s_ref = None; t_ref = None; naive_s = 0. }
  | Exact ->
    let r, naive_s = reference p.config in
    { digest = Digest_of.of_result r; s_ref = Some r; t_ref = None; naive_s }
  | Advise ->
    let s, s_s = reference (Exp_run.s_config p.config) in
    let t, t_s = reference (Exp_run.t_config p.config) in
    { digest = Digest_of.of_result s; s_ref = Some s; t_ref = Some t; naive_s = s_s +. t_s }

(* ---------------------------------------------------------------- *)
(* Running one point *)

type outcome = {
  committed : int;  (** simulated instructions retired, over every run of the point *)
  result : Machine.result;  (** the run the checks look at *)
  t_profile : Obs.Profile.input option;  (** advise only: the traditional profile *)
  events : int;  (** advise only: events the traced S run kept *)
  dropped : int;
  advise_s : float;
  report_s : float;
  summary_s : float;
}

let committed_of_profile (p : Obs.Profile.input) =
  match p.Obs.Profile.metrics with
  | Some m -> Option.value ~default:0 (Obs.Metrics.find_counter m "total/committed")
  | None -> 0

let run_point ~id p (w : Workload.t) =
  let program = w.Workload.program in
  let span name f = Spans.span ~point:id name f in
  match p.kind with
  | Exact | Sampled ->
    let r = span "engine.run" (fun () -> Machine.run p.config program) in
    {
      committed = Machine.committed_instrs r;
      result = r;
      t_profile = None;
      events = 0;
      dropped = 0;
      advise_s = 0.;
      report_s = 0.;
      summary_s = 0.;
    }
  | Advise ->
    let t_in, s_in = span "obs.advise_inputs" (fun () -> Profiling.advise_inputs p.config w) in
    let advice, advise_s =
      time (fun () -> span "obs.advise" (fun () -> Obs.Advisor.analyze ~scoped:s_in t_in))
    in
    let _text, report_s = time (fun () -> span "obs.report" (fun () -> Obs.Advisor.text advice)) in
    let trace = Obs.Trace.create ~ring_capacity:4096 ~cores:(Program.thread_count program) () in
    let r = span "engine.traced" (fun () -> Machine.run ~obs:trace (Exp_run.s_config p.config) program) in
    let report = Option.get r.Machine.obs in
    let _summary, summary_s =
      time (fun () -> span "obs.sink_summary" (fun () -> Obs.Sink.summary report))
    in
    {
      committed = committed_of_profile t_in + committed_of_profile s_in + Machine.committed_instrs r;
      result = r;
      t_profile = Some t_in;
      events = Obs.Report.events_count report;
      dropped = report.Obs.Report.dropped;
      advise_s;
      report_s;
      summary_s;
    }

let check p (w : Workload.t) reference o =
  let r = o.result in
  validate p.label w r;
  if reference.digest <> "" && Digest_of.of_result r <> reference.digest then
    fail "%s: digest differs from the reference run" p.label;
  match (o.t_profile, reference.t_ref) with
  | Some t_in, Some t_ref ->
    if
      t_in.Obs.Profile.cycles <> t_ref.Machine.cycles
      || not (Array.for_all2 Cpi.equal t_in.Obs.Profile.cpi t_ref.Machine.core_cpi)
    then fail "%s: traditional profile differs from the reference run" p.label
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* Passes *)

type sample = {
  point : point;
  wall_s : float;  (** host seconds in the point's run, calibrated *)
  setup_s : float;  (** host seconds in [Registry.find] + [Workload.build], calibrated *)
  raw_wall_s : float;  (** [wall_s] as measured *)
  slowdown : float;  (** the calibrations around the point over [Calib.ref_s] *)
  outcome : outcome;
}

type pass = {
  samples : sample list;
  minor_words : float;  (** GC activity over the pass *)
  promoted_words : float;
  major_collections : int;
}

(* Set-up is cheap next to simulation, so each pass builds every point
   [setup_repeats] times and keeps the median build time; the last
   build is the one that runs. *)
let build_point ~id p =
  let rec go k acc =
    let w, s = time (fun () -> Spans.span ~point:id "build" p.build) in
    if k = 1 then (w, median (s :: acc)) else go (k - 1) (s :: acc)
  in
  go setup_repeats []

let run_pass points references =
  (* Every pass starts from a compacted heap, so GC work does not
     depend on how many passes came before. *)
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let before = ref (Calib.measure ()) in
  let samples =
    List.mapi
      (fun id p ->
        checked p.label (fun () ->
            let w, setup_s = build_point ~id p in
            let o, wall_s =
              time (fun () -> Spans.span ~point:id "point" (fun () -> run_point ~id p w))
            in
            let after = Calib.measure () in
            let slowdown = (!before +. after) /. (2. *. Calib.ref_s) in
            before := after;
            check p w references.(id) o;
            {
              point = p;
              wall_s = wall_s /. slowdown;
              setup_s = setup_s /. slowdown;
              raw_wall_s = wall_s;
              slowdown;
              outcome = o;
            }))
      points
  in
  let gc1 = Gc.quick_stat () in
  {
    samples = List.filter_map Fun.id samples;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* Peak major heap, read once right after the first warm-up pass: by
   then the process has built every point, run its references and run
   every point once.  Reading it at a fixed place keeps it from
   depending on how many passes fit into the run. *)
let heap_peak_mb = ref 0.

(* Only the last pass's outcomes are read (simulated totals, probes);
   earlier passes keep their timings but drop the runs' final memory,
   event streams and profiles, so the live heap, and with it the GC's
   marking work, stays the same from the first pass to the last. *)
let forget_outcomes p =
  let light o = { o with result = { o.result with mem = [||]; obs = None }; t_profile = None } in
  { p with samples = List.map (fun s -> { s with outcome = light s.outcome }) p.samples }

(* One unmeasured warm-up pass (caches, heap growth), then passes until
   [budget] seconds have gone, at least [min_passes]. *)
let passes ~budget points references =
  ignore (run_pass points references);
  if !heap_peak_mb = 0. then
    heap_peak_mb :=
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
  let t0 = now_ns () in
  let rec go acc k =
    if k >= min_passes && secs_since t0 >= budget then List.rev acc
    else
      let acc = match acc with p :: rest -> forget_outcomes p :: rest | [] -> [] in
      go (run_pass points references :: acc) (k + 1)
  in
  go [] 0

(* Per point, the median over passes; summed over points.  A slow spell
   of the host then has to hit the same point in most passes to move
   the figure. *)
let point_medians f ps =
  match ps with
  | [] -> 0.
  | first :: _ ->
    List.map
      (fun s0 ->
        median
          (List.filter_map
             (fun p -> Option.map f (List.find_opt (fun s -> s.point == s0.point) p.samples))
             ps))
      first.samples
    |> List.fold_left ( +. ) 0.

let last_samples ps = match List.rev ps with p :: _ -> p.samples | [] -> []

(* Simulated totals over the last pass (every pass simulates the same). *)
let over ps f = sumi (fun s -> f s.outcome.result) (last_samples ps)
let overo ps f = sumi (fun s -> f s.outcome) (last_samples ps)

(* ---------------------------------------------------------------- *)
(* Output *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms =
    List.rev !metrics
    |> List.map (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failures = []) !attempted !failed (String.concat ", " ms)

let print_passes tag ps =
  List.iteri
    (fun k p ->
      Printf.printf "# %s pass %d wall_s=%.4f raw_wall_s=%.4f setup_s=%.5f\n" tag k
        (sum (fun s -> s.wall_s) p.samples)
        (sum (fun s -> s.raw_wall_s) p.samples)
        (sum (fun s -> s.setup_s) p.samples))
    ps;
  List.iter
    (fun s ->
      Printf.printf "# %s point %s wall_s=%.4f raw_wall_s=%.4f slowdown=%.3f instrs=%d cycles=%d\n"
        tag s.point.label s.wall_s s.raw_wall_s s.slowdown s.outcome.committed
        s.outcome.result.Machine.cycles)
    (last_samples ps)

(* ---------------------------------------------------------------- *)
(* The sharded 64-core point (paper-exact): its run must equal the
   reference, and a compact checkpoint captured from the sharded loop
   halfway through, encoded, decoded and resumed, must finish exactly
   like the uninterrupted run. *)

type ckpt = {
  to_json_s : float;
  render_s : float;
  parse_s : float;
  of_json_s : float;
  resume_run_s : float;
  bytes_plain : int;
  bytes_compact : int;
}

type big = {
  big_point : point;
  big_workload : Workload.t;
  big_ref : reference;
  ckpt : ckpt;
}

let big_check () =
  let p = sharded_point () in
  let w = p.build () in
  let program = w.Workload.program in
  let reference = reference_of p w in
  let captured = ref None in
  let at = max 1 ((Option.get reference.s_ref).Machine.cycles / 2) in
  let full =
    Machine.run ~checkpoint:(at, fun ck -> if !captured = None then captured := Some ck) p.config
      program
  in
  validate p.label w full;
  if Digest_of.of_result full <> reference.digest then
    fail "%s: sharded run differs from the reference run" p.label;
  let ck = match !captured with Some ck -> ck | None -> failwith "no checkpoint captured" in
  let doc, to_json_s = time (fun () -> Checkpoint.to_json ~compact:true ck) in
  let text, render_s = time (fun () -> Json.render doc) in
  let parsed, parse_s = time (fun () -> Json.parse text) in
  let ck', of_json_s = time (fun () -> Checkpoint.of_json parsed) in
  let resumed, resume_run_s = time (fun () -> Machine.run ~resume:ck' p.config program) in
  if Digest_of.of_result resumed <> reference.digest then
    fail "%s: run resumed from the checkpoint differs from the uninterrupted run" p.label;
  let bytes_plain = String.length (Json.render_pretty (Checkpoint.to_json ck)) in
  {
    big_point = p;
    big_workload = w;
    big_ref = reference;
    ckpt =
      {
        to_json_s;
        render_s;
        parse_s;
        of_json_s;
        resume_run_s;
        bytes_plain;
        bytes_compact = String.length text;
      };
  }

(* ---------------------------------------------------------------- *)
(* Per-layer probes, run once per point after the traced passes *)

type probes = {
  split : Lockstep.acc;  (** lockstep timing, over every run that matched its reference *)
  mutable split_cache : Hierarchy.stats list;  (** the same runs' simulated cache counts *)
  mutable naive_s : float;  (** [run_reference] host seconds *)
  mutable engine_s : float;  (** [Machine.run] host seconds of the same inputs *)
  mutable seq_s : float;  (** the sharded point, run sequentially *)
  mutable sharded_s : float;
  mutable sharded : Machine.result option;
  mutable sample_s : float;  (** the sampled traces' host seconds *)
  mutable sample_requests : int;
  mutable sample_cycles : int;
  mutable sample_measured : int;  (** cycles inside measured windows *)
  mutable sample_windows : int;
  mutable exact_cycles : int;  (** the first trace, rerun detailed *)
  mutable sampled_cycles : int;
  mutable obs_traced_s : float;  (** advise points: traced vs untraced S run *)
  mutable obs_plain_s : float;
}

let lockstep label config program (reference : Machine.result) probes =
  let o = Lockstep.run config program in
  if o.Lockstep.digest <> Digest_of.of_result reference || o.Lockstep.cache <> reference.Machine.cache
  then fail "%s: lockstep loop differs from Machine.run_reference; cpu/mem split refused" label
  else begin
    Lockstep.add_into probes.split o.Lockstep.acc;
    probes.split_cache <- o.Lockstep.cache :: probes.split_cache
  end

let exact_probe probes p program reference =
  lockstep p.label p.config program (Option.get reference.s_ref) probes;
  let _, engine_s = time (fun () -> Machine.run p.config program) in
  probes.naive_s <- probes.naive_s +. reference.naive_s;
  probes.engine_s <- probes.engine_s +. engine_s

let probe probes p (w : Workload.t) reference (o : outcome) =
  let program = w.Workload.program in
  match p.kind with
  | Exact -> exact_probe probes p program reference
  | Advise ->
    let s_config = Exp_run.s_config p.config in
    lockstep (p.label ^ "/S") s_config program (Option.get reference.s_ref) probes;
    lockstep (p.label ^ "/T") (Exp_run.t_config p.config) program (Option.get reference.t_ref)
      probes;
    let cores = Program.thread_count program in
    let _, plain = time (fun () -> Machine.run s_config program) in
    let _, traced =
      time (fun () ->
          Machine.run ~obs:(Obs.Trace.create ~ring_capacity:4096 ~cores ()) s_config program)
    in
    probes.obs_plain_s <- probes.obs_plain_s +. plain;
    probes.obs_traced_s <- probes.obs_traced_s +. traced
  | Sampled ->
    let r = o.result in
    probes.sample_requests <- probes.sample_requests + p.requests;
    probes.sample_cycles <- probes.sample_cycles + r.Machine.cycles;
    probes.sample_windows <- probes.sample_windows + List.length r.Machine.sample_windows;
    probes.sample_measured <-
      probes.sample_measured + sumi (fun (a, b) -> b - a + 1) r.Machine.sample_windows;
    (* the detailed rerun of one trace gives the sampling error *)
    if probes.exact_cycles = 0 then begin
      let exact = Machine.run (Config.v ~base:p.config ~sampling:None ()) program in
      validate p.label w exact;
      probes.exact_cycles <- exact.Machine.cycles;
      probes.sampled_cycles <- r.Machine.cycles
    end

(* The sharded 64-core point against the same machine run sequentially. *)
let shard_probe probes big =
  let p = big.big_point and program = big.big_workload.Workload.program in
  let sequential = Config.v ~base:p.config ~shard_domains:1 () in
  let _, seq_s = time (fun () -> Machine.run sequential program) in
  let r, sharded_s = time (fun () -> Machine.run p.config program) in
  if Digest_of.of_result r <> big.big_ref.digest then
    fail "%s: sharded run differs from the reference run" p.label;
  probes.seq_s <- seq_s;
  probes.sharded_s <- sharded_s;
  probes.sharded <- Some r

(* Each sampled 64-core trace, once. *)
let sampled_probe probes ~id p =
  let w = p.build () in
  let reference = reference_of p w in
  let o, s = time (fun () -> run_point ~id p w) in
  check p w reference o;
  probes.sample_s <- probes.sample_s +. s;
  probe probes p w reference o

(* ---------------------------------------------------------------- *)
(* Metrics *)

let end_to_end ps =
  let wall = point_medians (fun s -> s.wall_s) ps in
  metric "wall_s" "s" wall;
  metric "sim_kips" "kinstr/s" (ratio (float_of_int (overo ps (fun o -> o.committed))) wall /. 1000.);
  metric "setup_s" "s" (point_medians (fun s -> s.setup_s) ps);
  metric "heap_peak_mb" "MB" !heap_peak_mb

let per_layer ~built ~untraced ~traced ~big probes =
  let n_traced = float_of_int (List.length traced) in
  let seconds_of ns = float_of_int ns /. 1e9 in
  let sp = probes.split in
  (* cpu: the lockstep split *)
  metric "cpu.writes_s" "s" (seconds_of sp.Lockstep.writes_ns);
  metric "cpu.reads_s" "s" (seconds_of sp.Lockstep.reads_ns);
  metric "cpu.pipeline_self_s" "s" (seconds_of sp.Lockstep.pipeline_ns);
  metric "cpu.ns_per_core_cycle" "ns"
    (frac
       (sp.Lockstep.writes_ns + sp.Lockstep.reads_ns + sp.Lockstep.pipeline_ns + sp.Lockstep.mem_ns)
       sp.Lockstep.core_cycles);
  metric "cpu.progress_frac" "ratio" (frac sp.Lockstep.progress_steps sp.Lockstep.steps);
  (* mem: the lockstep split and the same runs' cache counts *)
  let cache f = sumi f probes.split_cache in
  let l1_hits = cache (fun c -> c.Hierarchy.l1_hits)
  and l1_misses = cache (fun c -> c.Hierarchy.l1_misses)
  and l2_hits = cache (fun c -> c.Hierarchy.l2_hits)
  and l2_misses = cache (fun c -> c.Hierarchy.l2_misses) in
  metric "mem.access_s" "s" (seconds_of sp.Lockstep.mem_ns);
  metric "mem.accesses" "count" (float_of_int sp.Lockstep.accesses);
  metric "mem.ns_per_access" "ns" (frac sp.Lockstep.mem_ns sp.Lockstep.accesses);
  metric "mem.l1_hit_frac" "ratio" (frac l1_hits (l1_hits + l1_misses));
  metric "mem.l2_miss_frac" "ratio" (frac l2_misses (l2_hits + l2_misses));
  metric "mem.invalidations" "count" (float_of_int (cache (fun c -> c.Hierarchy.invalidations)));
  (* engine *)
  let core_cycles = over untraced (fun r -> r.Machine.cycles * Array.length r.Machine.core_stats) in
  let engine_spans =
    sum Spans.total_seconds [ "engine.run"; "engine.traced"; "obs.advise_inputs" ]
  in
  metric "engine.run_s" "s" (engine_spans /. n_traced);
  metric "engine.spin_skipped_frac" "ratio"
    (frac (over untraced (fun r -> r.Machine.spin.Machine.cycles_skipped)) core_cycles);
  metric "engine.spin_sleeps" "count"
    (float_of_int (over untraced (fun r -> r.Machine.spin.Machine.sleeps)));
  metric "engine.spin_wakes" "count"
    (float_of_int (over untraced (fun r -> r.Machine.spin.Machine.wakes)));
  metric "engine.naive_ratio" "ratio" (ratio probes.naive_s probes.engine_s);
  (* shard: the sharded 64-core point *)
  let sharded f = match probes.sharded with Some r -> f r | None -> 0 in
  metric "shard.barriers" "count" (float_of_int (sharded (fun r -> r.Machine.shard.Machine.barriers)));
  metric "shard.elided_frac" "ratio"
    (frac (sharded (fun r -> r.Machine.shard.Machine.elided_cycles)) (sharded (fun r -> r.Machine.cycles)));
  metric "shard.parallel_gain" "ratio" (ratio probes.seq_s probes.sharded_s);
  (* sample: the sampled 64-core traces *)
  metric "sample.run_s" "s" probes.sample_s;
  metric "sample.windows" "count" (float_of_int probes.sample_windows);
  metric "sample.measured_cycles_frac" "ratio" (frac probes.sample_measured probes.sample_cycles);
  metric "sample.cycle_err_pct" "%"
    (100. *. frac (abs (probes.sampled_cycles - probes.exact_cycles)) probes.exact_cycles);
  (* ckpt: the sharded point's checkpoint round trip *)
  let ck f = match big with Some b -> f b.ckpt | None -> 0. in
  metric "ckpt.to_json_s" "s" (ck (fun c -> c.to_json_s));
  metric "ckpt.render_s" "s" (ck (fun c -> c.render_s));
  metric "ckpt.parse_s" "s" (ck (fun c -> c.parse_s));
  metric "ckpt.of_json_s" "s" (ck (fun c -> c.of_json_s));
  metric "ckpt.save_s" "s" (ck (fun c -> c.to_json_s +. c.render_s));
  metric "ckpt.resume_s" "s" (ck (fun c -> c.parse_s +. c.of_json_s));
  metric "ckpt.resume_run_s" "s" (ck (fun c -> c.resume_run_s));
  metric "ckpt.bytes_plain" "bytes" (ck (fun c -> float_of_int c.bytes_plain));
  metric "ckpt.bytes_compact" "bytes" (ck (fun c -> float_of_int c.bytes_compact));
  metric "ckpt.mb" "MB" (ck (fun c -> float_of_int c.bytes_compact /. 1e6));
  (* obs *)
  metric "obs.trace_overhead_pct" "%"
    (if probes.obs_plain_s = 0. then 0. else 100. *. ((probes.obs_traced_s /. probes.obs_plain_s) -. 1.));
  metric "obs.events" "count" (float_of_int (overo untraced (fun o -> o.events)));
  metric "obs.dropped" "count" (float_of_int (overo untraced (fun o -> o.dropped)));
  metric "obs.report_s" "s" (point_medians (fun s -> s.outcome.report_s) untraced);
  metric "obs.sink_summary_s" "s" (point_medians (fun s -> s.outcome.summary_s) untraced);
  metric "obs.advise_s" "s" (point_medians (fun s -> s.outcome.advise_s) untraced);
  (* build *)
  metric "build.s" "s" (point_medians (fun s -> s.setup_s) untraced);
  metric "build.program_instrs" "count"
    (float_of_int (sumi (fun (_, w) -> Program.total_instrs w.Workload.program) built));
  (* scope: simulated counts *)
  let per_core f = over untraced (fun r -> sumi f (Array.to_list r.Machine.core_stats)) in
  let cpi f = over untraced (fun r -> sumi f (Array.to_list r.Machine.core_cpi)) in
  metric "scope.fence_commits" "count" (float_of_int (per_core (fun s -> s.Core.committed_fences)));
  metric "scope.scoped_fence_frac" "ratio"
    (frac (cpi (fun c -> Cpi.fence_scope_cycles c Cpi.Scoped)) (cpi Cpi.fence_cycles));
  metric "scope.fence_wait_cycles" "count"
    (float_of_int (per_core (fun s -> s.Core.fence_stall_cycles)));
  (* gc, per untraced pass *)
  let instrs = float_of_int (overo untraced (fun o -> o.committed)) in
  let gc f = median (List.map f untraced) in
  metric "gc.minor_words_per_kinstr" "words" (gc (fun p -> ratio p.minor_words (instrs /. 1000.)));
  metric "gc.major_collections" "count" (gc (fun p -> float_of_int p.major_collections));
  metric "gc.promoted_words" "words" (gc (fun p -> p.promoted_words));
  (* server: the sampled 64-core traces *)
  metric "server.req_per_host_s" "req/s" (ratio (float_of_int probes.sample_requests) probes.sample_s);
  let wall = point_medians (fun s -> s.wall_s) untraced in
  (* the benchmark's own spans *)
  metric "bench.trace_overhead_pct" "%"
    (100. *. ((point_medians (fun s -> s.wall_s) traced /. wall) -. 1.));
  metric "bench.spans" "count" (float_of_int (Spans.count ()) /. n_traced);
  (* host: the calibration behind every host time above *)
  metric "host.raw_wall_s" "s" (point_medians (fun s -> s.raw_wall_s) untraced);
  metric "host.slowdown" "ratio"
    (median (List.concat_map (fun p -> List.map (fun s -> s.slowdown) p.samples) untraced))

(* ---------------------------------------------------------------- *)
(* Main *)

let main () =
  let make_points, with_big =
    match List.assoc_opt !workload_name workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "fsbench: unknown workload '%s' (one of: %s)\n" !workload_name
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  Exp_run.set_jobs 1;
  let points = make_points () in
  let domains = if with_big then shard_domains else 1 in
  Printf.printf
    "# host {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"tiny\": %b, \
     \"nproc\": %d, \"ocaml\": %S, \"shard_domains\": %d, \"domains_exceed_nproc\": %b, \
     \"commit\": %S}\n\
     %!"
    !workload_name !seed !seconds !trace !tiny !nproc Sys.ocaml_version domains
    (domains > !nproc) !commit;
  (* Untimed: one build and the reference runs of every point. *)
  let built = List.map (fun p -> (p, p.build ())) points in
  let references = Array.of_list (List.map (fun (p, w) -> reference_of p w) built) in
  (* The 64-core check runs after the passes, so that the heap peak
     read after the warm-up pass covers this workload's points only. *)
  let big () = if with_big then checked "server-mpmc-64/sharded" big_check else None in
  if not !trace then begin
    let ps = passes ~budget:!seconds points references in
    ignore (big ());
    print_passes "untraced" ps;
    end_to_end ps
  end
  else begin
    let untraced = passes ~budget:(!seconds /. 2.) points references in
    Spans.on := true;
    let traced = passes ~budget:(!seconds /. 2.) points references in
    Spans.on := false;
    let big = big () in
    print_passes "untraced" untraced;
    print_passes "traced" traced;
    let probes =
      {
        split = Lockstep.acc ();
        split_cache = [];
        naive_s = 0.;
        engine_s = 0.;
        seq_s = 0.;
        sharded_s = 0.;
        sharded = None;
        sample_s = 0.;
        sample_requests = 0;
        sample_cycles = 0;
        sample_measured = 0;
        sample_windows = 0;
        exact_cycles = 0;
        sampled_cycles = 0;
        obs_traced_s = 0.;
        obs_plain_s = 0.;
      }
    in
    List.iteri
      (fun id (p, w) ->
        match List.find_opt (fun s -> s.point == p) (last_samples untraced) with
        | Some s ->
          ignore (checked (p.label ^ "/probe") (fun () -> probe probes p w references.(id) s.outcome))
        | None -> ())
      built;
    Option.iter
      (fun b ->
        ignore (checked (b.big_point.label ^ "/probe") (fun () -> shard_probe probes b));
        List.iteri
          (fun id p -> ignore (checked p.label (fun () -> sampled_probe probes ~id p)))
          (sampled_points ()))
      big;
    List.iter (fun (name, s) -> Printf.printf "# span self_s %s=%.6f\n" name s) (Spans.self_seconds ());
    if !spans_dir <> "" then
      Spans.write (Filename.concat !spans_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload_name !seed));
    per_layer ~built ~untraced ~traced ~big probes
  end;
  List.iter (fun m -> Printf.printf "# FAILED %s\n" m) (List.rev !failures);
  print_result ();
  exit (if !failures = [] then 0 else 1)

let () = main ()
