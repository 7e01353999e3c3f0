(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md's experiment index).

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- fig12     -- one artefact
     dune exec bench/main.exe -- quick     -- reduced sizes (CI)
     dune exec bench/main.exe -- --jobs 4  -- fan experiment points
                                              across 4 domains
     dune exec bench/main.exe -- engine    -- fast-forward engine vs
                                              the naive cycle loop
     dune exec bench/main.exe -- bechamel  -- wall-clock cost of the
                                              simulator itself, one
                                              Bechamel test per artefact

   The simulator is deterministic, so every table below reproduces
   bit-for-bit regardless of --jobs; EXPERIMENTS.md records these
   outputs against the paper's claims.  Each non-bechamel invocation
   also drops BENCH_engine.json (wall-clock per artefact plus the
   engine-vs-naive comparison) for CI to archive. *)

module Table = Fscope_util.Table
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Registry = Fscope_workloads.Registry
module W = Fscope_workloads
module E = Fscope_experiments

let workload name params = E.Exp_run.workload ~params name

let say fmt = Printf.printf (fmt ^^ "\n%!")
let now_s () = Unix.gettimeofday ()

let run_table3 () = Table.print (E.Tables.table3 Config.default)
let run_table4 () = Table.print (E.Tables.table4 ())
let run_cost () = Table.print (E.Tables.hardware_cost Config.default)

let run_fig12 ~quick () =
  let series = E.Fig12.run ~quick () in
  Table.print (E.Fig12.table series);
  let peaks = List.map E.Fig12.peak series in
  say "peak speedups: %.2fx .. %.2fx (paper: 1.13x .. 1.34x)"
    (fst (Fscope_util.Stats.min_max peaks))
    (snd (Fscope_util.Stats.min_max peaks))

let run_fig13 ~quick () =
  let bars = E.Fig13.run ~quick () in
  Table.print (E.Fig13.table bars)

let run_fig14 ~quick () =
  let rows = E.Fig14.run ~quick () in
  Table.print (E.Fig14.table rows)

let run_fig15 ~quick () =
  let cells = E.Fig15.run ~quick () in
  Table.print (E.Fig15.table cells)

let run_fig16 ~quick () =
  let cells = E.Fig16.run ~quick () in
  Table.print (E.Fig16.table cells)

let run_ablate ~quick () =
  Table.print (E.Ablation.fsb_table (E.Ablation.fsb_sweep ~quick ()));
  Table.print (E.Ablation.fss_table (E.Ablation.fss_sweep ()));
  Table.print (E.Ablation.flavor_table (E.Ablation.flavor_sweep ~quick ()))

(* ------------------------------------------------------------------ *)
(* Engine benchmark: the event-horizon fast-forward loop against the
   retained naive per-cycle loop, on the fig13 full-app set (default
   latency and the fig15 500-cycle point).  Both loops produce
   bit-identical results; this artefact quotes the wall-clock win and
   simulation throughput of each.                                      *)
(* ------------------------------------------------------------------ *)

type engine_row = {
  er_workload : string;
  er_config : string;
  er_cycles : int;
  er_engine_s : float;
  er_naive_s : float;
  er_spin_skipped : int;
  er_spin_sleeps : int;
}

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let engine_rows = ref ([] : engine_row list)

let run_engine ~quick () =
  (* Fig13's app set plus the spin-heavy points: dekker's busy-wait
     entry protocol, and spin-barrier — whose workers spend most of
     their cycles in stable flag spins the engine's spin fast-forward
     sleeps through (the spin-skip column shows the replayed span). *)
  let apps =
    [
      ( "dekker",
        workload "dekker"
          {
            Registry.default_params with
            attempts = (if quick then 10 else Registry.default_params.Registry.attempts);
          } );
      ( "spin-barrier",
        workload "spin-barrier"
          { Registry.default_params with rounds = Some (if quick then 10 else 40) } );
    ]
    @ E.Fig13.apps ~quick ()
  in
  let points =
    List.concat_map
      (fun (app, w) ->
        [
          (app, "T", E.Exp_run.t_config Config.default, w);
          (app, "S", E.Exp_run.s_config Config.default, w);
          ( app,
            "T lat500",
            E.Exp_run.t_config (Config.v ~mem_latency:500 ()),
            w );
        ])
      apps
  in
  let rows =
    List.map
      (fun (app, cname, config, w) ->
        let engine_r, engine_s =
          timed (fun () -> Machine.run config w.W.Workload.program)
        in
        let naive_r, naive_s =
          timed (fun () -> Machine.run_reference config w.W.Workload.program)
        in
        if not (Machine.same_outcome engine_r naive_r) then
          failwith
            (Printf.sprintf "engine/naive mismatch on %s (%s)" app cname);
        {
          er_workload = app;
          er_config = cname;
          er_cycles = engine_r.Machine.cycles;
          er_engine_s = engine_s;
          er_naive_s = naive_s;
          er_spin_skipped = engine_r.Machine.spin.Machine.cycles_skipped;
          er_spin_sleeps = engine_r.Machine.spin.Machine.sleeps;
        })
      points
  in
  engine_rows := rows;
  let t =
    Table.create ~title:"Engine — fast-forward vs naive cycle loop"
      ~header:
        [
          "app"; "config"; "cycles"; "engine s"; "naive s"; "speedup"; "Mcyc/s";
          "spin-skip";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.er_workload;
          r.er_config;
          string_of_int r.er_cycles;
          Printf.sprintf "%.3f" r.er_engine_s;
          Printf.sprintf "%.3f" r.er_naive_s;
          Table.cell_x (r.er_naive_s /. r.er_engine_s);
          Printf.sprintf "%.2f" (float_of_int r.er_cycles /. r.er_engine_s /. 1e6);
          string_of_int r.er_spin_skipped;
        ])
    rows;
  Table.print t;
  let tot f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  say "engine total %.2fs, naive total %.2fs — %.2fx overall"
    (tot (fun r -> r.er_engine_s))
    (tot (fun r -> r.er_naive_s))
    (tot (fun r -> r.er_naive_s) /. tot (fun r -> r.er_engine_s))

(* ------------------------------------------------------------------ *)
(* Profile artefact: cycle-accounting profiles of the eight paper
   workloads under sfence / traditional / no-fence, rendered into
   BENCH_profile.json for CI to archive.  Each profile carries the
   full CPI stack, per-fence-site tables and spin candidates; the
   table printed here is just the headline shares.                     *)
(* ------------------------------------------------------------------ *)

module Obs = Fscope_obs

let profile_inputs = ref ([] : Obs.Profile.input list)

(* The no-fence ablation can break a workload's termination protocol
   (pst livelocks in its steal loop without ordering), so profile runs
   carry a cycle cap several times above any terminating run's count;
   a capped run is reported with its [timed_out] flag set rather than
   spinning out the 30M-cycle default budget at traced-run speed. *)
let profile_configs ~quick =
  let base = Config.v ~max_cycles:(if quick then 100_000 else 300_000) () in
  [ E.Exp_run.s_config base; E.Exp_run.t_config base; E.Exp_run.nf_config base ]

let run_profile ~quick () =
  let build name size =
    workload name
      {
        Registry.default_params with
        size;
        attempts = (if quick then 10 else Registry.default_params.Registry.attempts);
      }
  in
  let apps =
    [
      build "dekker" None;
      build "wsq" None;
      build "msn" (if quick then Some 8 else None);
      build "harris" (if quick then Some 4 else None);
      build "pst" (Some (if quick then 256 else 768));
      build "ptc" (Some (if quick then 128 else 256));
      build "barnes" (Some (if quick then 64 else 192));
      build "radiosity" (Some (if quick then 64 else 160));
      workload "spin-barrier"
        { Registry.default_params with rounds = Some (if quick then 8 else 24) };
    ]
  in
  let inputs =
    List.concat_map
      (fun w ->
        List.map (fun config -> E.Profiling.profile config w) (profile_configs ~quick))
      apps
  in
  profile_inputs := inputs;
  let t =
    Table.create ~title:"Profile — CPI-stack headline shares"
      ~header:[ "app"; "config"; "cycles"; "active"; "fence%"; "spin%"; "mem%" ]
  in
  List.iter
    (fun (p : Obs.Profile.input) ->
      let active = Array.fold_left ( + ) 0 p.Obs.Profile.core_active in
      let sum f = Array.fold_left (fun acc c -> acc + f c) 0 p.Obs.Profile.cpi in
      let leaf_sum = sum Obs.Cpi.total in
      if leaf_sum <> active then
        failwith
          (Printf.sprintf "profile %s [%s]: CPI leaves sum %d <> active cycles %d"
             p.Obs.Profile.label p.Obs.Profile.config leaf_sum active);
      let share v = 100. *. Fscope_util.Stats.ratio ~num:v ~den:active in
      let mem =
        sum (fun c ->
            Obs.Cpi.get c Obs.Cpi.Mem_l1 + Obs.Cpi.get c Obs.Cpi.Mem_l2
            + Obs.Cpi.get c Obs.Cpi.Mem_main)
      in
      Table.add_row t
        [
          p.Obs.Profile.label;
          p.Obs.Profile.config;
          string_of_int p.Obs.Profile.cycles;
          string_of_int active;
          Printf.sprintf "%.1f" (share (sum Obs.Cpi.fence_cycles));
          Printf.sprintf "%.1f" (share (sum (fun c -> Obs.Cpi.get c Obs.Cpi.Spin_candidate)));
          Printf.sprintf "%.1f" (share mem);
        ])
    inputs;
  Table.print t

let write_profile_json ~quick path =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\n  \"schema\": \"fence-scoping/bench-profile/v2\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf "  \"profiles\": [";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (Obs.Profile.json p))
    !profile_inputs;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  say "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Server artefact: the high-traffic suite (MPMC dispatch, cache with
   epoch reclamation, work stealing) — requests per kilocycle and
   fence-stall tails for T vs S vs S-set, written to
   BENCH_server.json.  On hosts with >= 2 CPUs the whole sweep is
   computed twice, --jobs 1 and --jobs 2, and must agree exactly; the
   per-point engine-vs-reference bit-identity check lives inside
   E.Server.eval.                                                      *)
(* ------------------------------------------------------------------ *)

let server_rows = ref ([] : E.Server.row list)

(* Artefacts that decided to skip themselves (e.g. jobs-scaling on a
   1-CPU host) still land in the artefacts list for completeness, but
   carry an explicit "skipped" marker so the trend differ knows their
   near-zero seconds are not a wall-clock improvement to gate
   against. *)
let skipped_artefacts = ref ([] : string list)
let mark_skipped name = skipped_artefacts := name :: !skipped_artefacts

let run_server ~quick () =
  let cpus = Domain.recommended_domain_count () in
  let saved = E.Exp_run.jobs () in
  let rows =
    if cpus < 2 then E.Server.run ~quick ()
    else begin
      E.Exp_run.set_jobs 1;
      let seq = E.Server.run ~quick () in
      E.Exp_run.set_jobs 2;
      let par = E.Server.run ~quick () in
      if seq <> par then
        failwith "server: rows diverge between --jobs 1 and --jobs 2";
      seq
    end
  in
  E.Exp_run.set_jobs saved;
  server_rows := rows;
  Table.print (E.Server.table rows);
  List.iter
    (fun (w, c, g) -> say "%-14s %s throughput %.2fx over T" w c g)
    (E.Server.gains rows);
  if cpus < 2 then say "server: cross-jobs determinism check skipped (host reports %d CPU)" cpus

let write_server_json ~quick ~jobs path =
  let oc = open_out path in
  output_string oc (E.Server.json ~quick ~jobs !server_rows);
  close_out oc;
  say "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Jobs-scaling artefact: the same experiment points measured with one
   domain and with several, asserting byte-identical results and (on
   hosts with enough CPUs to make it meaningful) a wall-clock win.
   Skips cleanly on single-CPU runners.                                *)
(* ------------------------------------------------------------------ *)

type jobs_scaling = {
  js_cpus : int;
  js_points : int;
  js_jobs : int;
  js_seq_s : float;
  js_par_s : float;
}

let jobs_scaling_row = ref (None : jobs_scaling option)

let run_jobs_scaling ~quick () =
  let cpus = Domain.recommended_domain_count () in
  if cpus < 2 then begin
    mark_skipped "jobs-scaling";
    say "jobs-scaling: skipped (host reports %d CPU)" cpus
  end
  else begin
    let specs =
      List.concat_map
        (fun (_, w) ->
          List.map
            (fun (_, mk) -> { E.Exp_run.config = mk Config.default; workload = w })
            [ ("T", E.Exp_run.t_config); ("S", E.Exp_run.s_config) ])
        (E.Fig13.apps ~quick ())
    in
    let saved = E.Exp_run.jobs () in
    E.Exp_run.set_jobs 1;
    let seq_ms, seq_s = timed (fun () -> E.Exp_run.measure_all specs) in
    let j = min 4 cpus in
    E.Exp_run.set_jobs j;
    let par_ms, par_s = timed (fun () -> E.Exp_run.measure_all specs) in
    E.Exp_run.set_jobs saved;
    if seq_ms <> par_ms then
      failwith "jobs-scaling: parallel sweep diverged from the sequential one";
    let sp = seq_s /. par_s in
    say "jobs-scaling: %d points — 1 job %.2fs, %d jobs %.2fs, %.2fx (host CPUs: %d)"
      (List.length specs) seq_s j par_s sp cpus;
    (* Only hold the speedup on hosts with headroom: a 2-3 CPU runner
       can legitimately lose the win to scheduling noise. *)
    if cpus >= 4 && sp < 1.05 then
      failwith
        (Printf.sprintf
           "jobs-scaling: %.2fx with %d jobs on a %d-CPU host — domains buy nothing" sp j
           cpus);
    jobs_scaling_row :=
      Some
        {
          js_cpus = cpus;
          js_points = List.length specs;
          js_jobs = j;
          js_seq_s = seq_s;
          js_par_s = par_s;
        }
  end

(* ------------------------------------------------------------------ *)
(* Shard-scaling artefact: one machine's cores split across OCaml
   domains (--shard-domains) against the same machine on the
   sequential engine loop.  Bit-identity is asserted on every host;
   the wall-clock ratio is recorded, not asserted — a 1-CPU runner
   legitimately loses time to barrier traffic.                         *)
(* ------------------------------------------------------------------ *)

type shard_scaling = {
  ss_cpus : int;
  ss_cores : int;
  ss_shards : int;
  ss_seq_s : float;
  ss_shard_s : float;
  ss_barriers : int;
  ss_elided : int;  (* lockstep-traffic counters of the sharded run *)
}

let shard_scaling_row = ref (None : shard_scaling option)

let run_shard_scaling ~quick () =
  let cpus = Domain.recommended_domain_count () in
  let threads = if quick then 16 else 32 in
  let per = if quick then 4 else 12 in
  let w = W.Mpmc.make ~threads ~per_producer:per ~scope:`Class () in
  let base = E.Exp_run.s_config Config.default in
  let run d =
    timed (fun () ->
        Machine.run (Config.v ~base ~shard_domains:d ()) w.W.Workload.program)
  in
  let seq_r, seq_s = run 1 in
  let shards = max 2 (min 4 cpus) in
  let shard_r, shard_s = run shards in
  if not (Machine.same_outcome seq_r shard_r) then
    failwith
      (Printf.sprintf "shard-scaling: %d-shard run diverged from the sequential loop"
         shards);
  (* Barrier elision must have fired: the MPMC service loops give the
     horizon analysis plenty of provably-quiet spans. *)
  let no_elide_r =
    Machine.run
      (Config.v ~base ~shard_domains:shards ~elide_barriers:false ())
      w.W.Workload.program
  in
  if not (Machine.same_outcome no_elide_r shard_r) then
    failwith "shard-scaling: elision changed the result";
  if shard_r.Machine.shard.Machine.elided_cycles = 0 then
    failwith "shard-scaling: barrier elision never fired";
  if shard_r.Machine.shard.Machine.barriers >= no_elide_r.Machine.shard.Machine.barriers
  then
    failwith "shard-scaling: elision did not reduce barrier traffic";
  say
    "shard-scaling: %d cores — 1 shard %.2fs, %d shards %.2fs, %.2fx (host CPUs: %d, \
     bit-identical; %d barriers, %d cycles elided, %d barriers without elision)"
    threads seq_s shards shard_s (seq_s /. shard_s) cpus
    shard_r.Machine.shard.Machine.barriers shard_r.Machine.shard.Machine.elided_cycles
    no_elide_r.Machine.shard.Machine.barriers;
  shard_scaling_row :=
    Some
      { ss_cpus = cpus; ss_cores = threads; ss_shards = shards; ss_seq_s = seq_s;
        ss_shard_s = shard_s; ss_barriers = shard_r.Machine.shard.Machine.barriers;
        ss_elided = shard_r.Machine.shard.Machine.elided_cycles }

(* ------------------------------------------------------------------ *)
(* Sharded-sampled artefact: the tentpole composition — the 256-core
   sampled MPMC machine with its detailed windows split across shard
   domains, against the same sampled run on one domain.  Bit-identity
   (including the recorded window ranges) is asserted on every host;
   the >=2x wall-clock gate holds only on runners with >= 4 CPUs at
   full size, where the window work dwarfs the barrier cost.           *)
(* ------------------------------------------------------------------ *)

type sharded_sampled = {
  hs_cpus : int;
  hs_cores : int;
  hs_shards : int;
  hs_seq_s : float;
  hs_shard_s : float;
  hs_barriers : int;
  hs_windows : int;
  hs_gated : bool;  (* the >=2x wall-clock gate was enforced *)
}

let sharded_sampled_row = ref (None : sharded_sampled option)

let run_sharded_sampled ~quick () =
  let cpus = Domain.recommended_domain_count () in
  let threads = 256 in
  let per = if quick then 1 else 156 in
  let w = W.Mpmc.make ~threads ~per_producer:per ~scope:`Class () in
  let base =
    Config.v
      ~base:(E.Exp_run.s_config Config.default)
      ~sampling:(Some (E.Server.sampled_sampling ~quick))
      ()
  in
  let run d =
    timed (fun () ->
        Machine.run (Config.v ~base ~shard_domains:d ()) w.W.Workload.program)
  in
  let seq_r, seq_s = run 1 in
  let shards = max 2 (min 4 cpus) in
  let shard_r, shard_s = run shards in
  if not (Machine.same_outcome seq_r shard_r) then
    failwith
      (Printf.sprintf
         "sharded-sampled: %d-shard sampled run diverged from the sequential one"
         shards);
  if seq_r.Machine.sample_windows <> shard_r.Machine.sample_windows then
    failwith "sharded-sampled: sharding moved the measured windows";
  if shard_r.Machine.shard.Machine.barriers = 0 then
    failwith "sharded-sampled: the window team never crossed a barrier";
  let speedup = seq_s /. shard_s in
  let gated = (not quick) && cpus >= 4 in
  say
    "sharded-sampled: %d cores sampled — 1 shard %.2fs, %d shards %.2fs, %.2fx (host \
     CPUs: %d, bit-identical, %d barriers, %d measured windows%s)"
    threads seq_s shards shard_s speedup cpus shard_r.Machine.shard.Machine.barriers
    (List.length shard_r.Machine.sample_windows)
    (if gated then "" else "; wall-clock gate skipped");
  if gated && speedup < 2.0 then
    failwith
      (Printf.sprintf
         "sharded-sampled: %.2fx with %d shards on a %d-CPU host — sharding the \
          windows buys less than the promised 2x"
         speedup shards cpus);
  if not gated then mark_skipped "sharded-sampled";
  sharded_sampled_row :=
    Some
      {
        hs_cpus = cpus;
        hs_cores = threads;
        hs_shards = shards;
        hs_seq_s = seq_s;
        hs_shard_s = shard_s;
        hs_barriers = shard_r.Machine.shard.Machine.barriers;
        hs_windows = List.length shard_r.Machine.sample_windows;
        hs_gated = gated;
      }

(* ------------------------------------------------------------------ *)
(* Sampled-simulation artefact: the SMARTS-style interval estimator
   against the detailed engine on the 64-core MPMC point, asserting
   the per-metric error bound DESIGN §15 promises and (at full size)
   the >=10x wall-clock win; then the sampled server rows, including
   the 256-core machine that only exists sampled.  The sampled rows
   are appended to the server artefact's, so BENCH_server.json carries
   both generations of the scale point.                                *)
(* ------------------------------------------------------------------ *)

type sampled_cmp = {
  sm_workload : string;
  sm_detailed_cycles : int;
  sm_sampled_cycles : int;
  sm_cycles_err_pct : float;
  sm_fence_err_pp : float;  (* |fence share delta| in percentage points *)
  sm_detailed_s : float;
  sm_sampled_s : float;
  sm_speedup : float;
}

let sampled_cmp_row = ref (None : sampled_cmp option)

(* The tested error contract (DESIGN §15): estimated cycles within 25%
   of the detailed run, fence share within 10 percentage points.  CI
   asserts these on every run; the wall-clock win is asserted only at
   full size, where the fast-forward leg dominates. *)
let sampled_cycles_err_bound = 25.0
let sampled_fence_err_bound = 10.0

let run_sampled_sim ~quick () =
  let threads = 64 in
  let per = if quick then 4 else 625 in
  let w = W.Mpmc.make ~threads ~per_producer:per ~scope:`Class () in
  let s = E.Exp_run.s_config Config.default in
  let sampled_config =
    Config.v ~base:s ~sampling:(Some (E.Server.sampled_sampling ~quick)) ()
  in
  let detailed_r, detailed_s =
    timed (fun () -> Machine.run s w.W.Workload.program)
  in
  let sampled_r, sampled_s =
    timed (fun () -> Machine.run sampled_config w.W.Workload.program)
  in
  List.iter
    (fun (label, r) ->
      if r.Machine.timed_out then failwith ("sampled-sim: " ^ label ^ " run timed out");
      match w.W.Workload.validate r with
      | Ok () -> ()
      | Error msg ->
        failwith (Printf.sprintf "sampled-sim: %s validation failed — %s" label msg))
    [ ("detailed", detailed_r); ("sampled", sampled_r) ];
  let fence_share (r : Machine.result) =
    let active = Machine.total_active_cycles r in
    let fence =
      Array.fold_left
        (fun acc c -> acc + Obs.Cpi.fence_cycles c)
        0 r.Machine.core_cpi
    in
    100. *. Fscope_util.Stats.ratio ~num:fence ~den:active
  in
  let cycles_err =
    100.
    *. Float.abs
         (float_of_int (sampled_r.Machine.cycles - detailed_r.Machine.cycles))
    /. float_of_int detailed_r.Machine.cycles
  in
  let fence_err = Float.abs (fence_share sampled_r -. fence_share detailed_r) in
  let speedup = detailed_s /. sampled_s in
  say
    "sampled-sim: 64-core mpmc — detailed %d cycles %.2fs, sampled %d cycles %.2fs \
     (%.2fx wall-clock, cycle error %.1f%%, fence-share error %.1fpp)"
    detailed_r.Machine.cycles detailed_s sampled_r.Machine.cycles sampled_s speedup
    cycles_err fence_err;
  if cycles_err > sampled_cycles_err_bound then
    failwith
      (Printf.sprintf "sampled-sim: cycle estimate off by %.1f%% (bound %.0f%%)"
         cycles_err sampled_cycles_err_bound);
  if fence_err > sampled_fence_err_bound then
    failwith
      (Printf.sprintf "sampled-sim: fence share off by %.1fpp (bound %.0fpp)" fence_err
         sampled_fence_err_bound);
  if (not quick) && speedup < 10.0 then
    failwith
      (Printf.sprintf
         "sampled-sim: %.2fx wall-clock over detailed at full size — sampling buys \
          less than the promised 10x"
         speedup);
  sampled_cmp_row :=
    Some
      {
        sm_workload = "server-mpmc-64";
        sm_detailed_cycles = detailed_r.Machine.cycles;
        sm_sampled_cycles = sampled_r.Machine.cycles;
        sm_cycles_err_pct = cycles_err;
        sm_fence_err_pp = fence_err;
        sm_detailed_s = detailed_s;
        sm_sampled_s = sampled_s;
        sm_speedup = speedup;
      };
  let rows = E.Server.run_sampled ~quick () in
  server_rows := !server_rows @ rows;
  Table.print (E.Server.table rows)

(* ------------------------------------------------------------------ *)
(* BENCH_engine.json: machine-readable record of the invocation —
   wall-clock per artefact, simulation throughput, and the
   engine-vs-naive rows when the [engine] artefact ran.                *)
(* ------------------------------------------------------------------ *)

let artefact_times = ref ([] : (string * float) list)

(* The engine_vs_naive list must never be empty — CI diffs it, and an
   invocation that skipped the [engine] artefact (e.g. [bench server])
   used to drop an empty list.  One small dekker point keeps the
   document well-formed and the comparison live. *)
let fallback_engine_row () =
  let w = workload "dekker" { Registry.default_params with attempts = 5 } in
  let config = E.Exp_run.t_config Config.default in
  let engine_r, engine_s = timed (fun () -> Machine.run config w.W.Workload.program) in
  let naive_r, naive_s =
    timed (fun () -> Machine.run_reference config w.W.Workload.program)
  in
  if not (Machine.same_outcome engine_r naive_r) then
    failwith "engine/naive mismatch on the fallback dekker row";
  {
    er_workload = "dekker";
    er_config = "T-fallback";
    er_cycles = engine_r.Machine.cycles;
    er_engine_s = engine_s;
    er_naive_s = naive_s;
    er_spin_skipped = engine_r.Machine.spin.Machine.cycles_skipped;
    er_spin_sleeps = engine_r.Machine.spin.Machine.sleeps;
  }

let write_bench_json ~quick ~jobs path =
  if !engine_rows = [] then engine_rows := [ fallback_engine_row () ];
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"fence-scoping/bench-engine/v4\",\n";
  add "  \"quick\": %b,\n" quick;
  add "  \"jobs\": %d,\n" jobs;
  add "  \"shard_domains\": %d,\n" (E.Exp_run.shard_domains ());
  add "  \"artefacts\": [";
  List.iteri
    (fun i (name, s) ->
      add "%s\n    {\"name\": %S, \"seconds\": %.3f%s}"
        (if i = 0 then "" else ",")
        name s
        (if List.mem name !skipped_artefacts then ", \"skipped\": true" else ""))
    (List.rev !artefact_times);
  add "\n  ],\n";
  add "  \"engine_vs_naive\": [";
  List.iteri
    (fun i r ->
      add
        "%s\n    {\"workload\": %S, \"config\": %S, \"sim_cycles\": %d, \
         \"engine_seconds\": %.3f, \"naive_seconds\": %.3f, \"speedup\": %.2f, \
         \"engine_cycles_per_sec\": %.0f, \"naive_cycles_per_sec\": %.0f, \
         \"spin_cycles_skipped\": %d, \"spin_sleeps\": %d}"
        (if i = 0 then "" else ",")
        r.er_workload r.er_config r.er_cycles r.er_engine_s r.er_naive_s
        (r.er_naive_s /. r.er_engine_s)
        (float_of_int r.er_cycles /. r.er_engine_s)
        (float_of_int r.er_cycles /. r.er_naive_s)
        r.er_spin_skipped r.er_spin_sleeps)
    !engine_rows;
  add "\n  ]";
  (match !jobs_scaling_row with
  | None -> ()
  | Some js ->
    add ",\n";
    add
      "  \"jobs_scaling\": {\"cpus\": %d, \"points\": %d, \"jobs\": %d, \
       \"seq_seconds\": %.3f, \"par_seconds\": %.3f, \"speedup\": %.2f}"
      js.js_cpus js.js_points js.js_jobs js.js_seq_s js.js_par_s
      (js.js_seq_s /. js.js_par_s));
  (match !shard_scaling_row with
  | None -> ()
  | Some ss ->
    add ",\n";
    add
      "  \"shard_scaling\": {\"cpus\": %d, \"cores\": %d, \"shards\": %d, \
       \"seq_seconds\": %.3f, \"shard_seconds\": %.3f, \"shard_speedup\": %.2f, \
       \"barriers_total\": %d, \"elided_cycles\": %d, \"bit_identical\": true}"
      ss.ss_cpus ss.ss_cores ss.ss_shards ss.ss_seq_s ss.ss_shard_s
      (ss.ss_seq_s /. ss.ss_shard_s)
      ss.ss_barriers ss.ss_elided);
  (match !sharded_sampled_row with
  | None -> ()
  | Some hs ->
    add ",\n";
    add
      "  \"sharded_sampled\": {\"cpus\": %d, \"cores\": %d, \"shards\": %d, \
       \"seq_seconds\": %.3f, \"shard_seconds\": %.3f, \"shard_speedup\": %.2f, \
       \"barriers_total\": %d, \"measured_windows\": %d, \"wallclock_gated\": %b, \
       \"bit_identical\": true}"
      hs.hs_cpus hs.hs_cores hs.hs_shards hs.hs_seq_s hs.hs_shard_s
      (hs.hs_seq_s /. hs.hs_shard_s)
      hs.hs_barriers hs.hs_windows hs.hs_gated);
  (match !sampled_cmp_row with
  | None -> ()
  | Some sm ->
    add ",\n";
    add
      "  \"sampled_sim\": {\"workload\": %S, \"detailed_cycles\": %d, \
       \"sampled_cycles\": %d, \"cycles_err_pct\": %.2f, \"fence_err_pp\": %.2f, \
       \"detailed_seconds\": %.3f, \"sampled_seconds\": %.3f, \"speedup\": %.2f}"
      sm.sm_workload sm.sm_detailed_cycles sm.sm_sampled_cycles sm.sm_cycles_err_pct
      sm.sm_fence_err_pp sm.sm_detailed_s sm.sm_sampled_s sm.sm_speedup);
  (match !engine_rows with
  | [] -> add "\n"
  | rows ->
    let tot f = List.fold_left (fun acc r -> acc +. f r) 0. rows in
    let e = tot (fun r -> r.er_engine_s) and nv = tot (fun r -> r.er_naive_s) in
    add ",\n";
    add "  \"engine_total_seconds\": %.3f,\n" e;
    add "  \"naive_total_seconds\": %.3f,\n" nv;
    add "  \"overall_speedup\": %.2f\n" (nv /. e));
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  say "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock cost of regenerating each artefact, measured
   on reduced-size runs so sampling stays tractable.                   *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let staged f = Staged.stage f in
  [
    Test.make ~name:"table3" (staged (fun () -> ignore (E.Tables.table3 Config.default)));
    Test.make ~name:"table4" (staged (fun () -> ignore (E.Tables.table4 ())));
    Test.make ~name:"hw-cost"
      (staged (fun () -> ignore (E.Tables.hardware_cost_bits Config.default)));
    Test.make ~name:"fig12-cell"
      (staged (fun () ->
           let w =
             workload "dekker"
               { Registry.default_params with
                 level = Fscope_workloads.Privwork.fig12_levels.(0);
                 attempts = 5 }
           in
           ignore (E.Exp_run.measure (E.Exp_run.s_config Config.default) w)));
    Test.make ~name:"fig13-cell"
      (staged (fun () ->
           let w = workload "radiosity" { Registry.default_params with size = Some 32 } in
           ignore (E.Exp_run.measure (E.Exp_run.s_config Config.default) w)));
    Test.make ~name:"fig14-cell"
      (staged (fun () ->
           let w =
             workload "harris"
               { Registry.default_params with
                 scope = `Set;
                 level = Fscope_workloads.Privwork.fig12_levels.(0) }
           in
           ignore (E.Exp_run.measure (E.Exp_run.s_config Config.default) w)));
    Test.make ~name:"fig15-cell"
      (staged (fun () ->
           let w = workload "barnes" { Registry.default_params with size = Some 64 } in
           let c = Config.v ~mem_latency:200 () in
           ignore (E.Exp_run.measure (E.Exp_run.s_config c) w)));
    Test.make ~name:"fig16-cell"
      (staged (fun () ->
           let w = workload "barnes" { Registry.default_params with size = Some 64 } in
           let c = Config.v ~rob_size:64 () in
           ignore (E.Exp_run.measure (E.Exp_run.s_config c) w)));
    Test.make ~name:"ablate-cell"
      (staged (fun () ->
           let w = workload "nested-scopes" { Registry.default_params with rounds = Some 8 } in
           ignore (E.Exp_run.measure (E.Exp_run.s_config Config.default) w)));
  ]

let run_bechamel () =
  let open Bechamel in
  let tests = Test.make_grouped ~name:"bench" (bechamel_tests ()) in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 2.0) ~stabilize:false () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> say "%-40s %12.3f ms/run" name (est /. 1e6)
      | Some _ | None -> say "%-40s (no estimate)" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let artefacts ~quick =
  [
    ("table3", run_table3);
    ("table4", run_table4);
    ("cost", run_cost);
    ("fig12", run_fig12 ~quick);
    ("fig13", run_fig13 ~quick);
    ("fig14", run_fig14 ~quick);
    ("fig15", run_fig15 ~quick);
    ("fig16", run_fig16 ~quick);
    ("ablate", run_ablate ~quick);
    ("engine", run_engine ~quick);
    ("profile", run_profile ~quick);
    ("server", run_server ~quick);
    ("sampled", run_sampled_sim ~quick);
    ("jobs-scaling", run_jobs_scaling ~quick);
    ("shard-scaling", run_shard_scaling ~quick);
    ("sharded-sampled", run_sharded_sampled ~quick);
  ]

let run_artefact (name, f) =
  let (), s = timed f in
  artefact_times := (name, s) :: !artefact_times

(* "quick", "--jobs N" / "--jobs=N" and "--shard-domains N" /
   "--shard-domains=N" are modifiers; everything else names an
   artefact. *)
let parse_args args =
  let prefixed prefix arg =
    let pl = String.length prefix in
    if String.length arg > pl && String.sub arg 0 pl = prefix then
      Some (String.sub arg pl (String.length arg - pl))
    else None
  in
  let rec go quick jobs shards wanted = function
    | [] -> (quick, jobs, shards, List.rev wanted)
    | "quick" :: rest -> go true jobs shards wanted rest
    | "--jobs" :: n :: rest -> go quick (int_of_string n) shards wanted rest
    | "--shard-domains" :: n :: rest -> go quick jobs (int_of_string n) wanted rest
    | arg :: rest -> (
      match prefixed "--jobs=" arg with
      | Some n -> go quick (int_of_string n) shards wanted rest
      | None -> (
        match prefixed "--shard-domains=" arg with
        | Some n -> go quick jobs (int_of_string n) wanted rest
        | None -> go quick jobs shards (arg :: wanted) rest))
  in
  go false 1 1 [] args

let () =
  let quick, jobs, shards, wanted = parse_args (Array.to_list Sys.argv |> List.tl) in
  E.Exp_run.set_jobs jobs;
  E.Exp_run.set_shard_domains shards;
  match wanted with
  | [ "bechamel" ] -> run_bechamel ()
  | [] ->
    List.iter
      (fun (name, f) ->
        say "";
        say "### %s" name;
        run_artefact (name, f))
      (artefacts ~quick);
    write_bench_json ~quick ~jobs "BENCH_engine.json";
    if !profile_inputs <> [] then write_profile_json ~quick "BENCH_profile.json";
    if !server_rows <> [] then write_server_json ~quick ~jobs "BENCH_server.json"
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name (artefacts ~quick) with
        | Some f -> run_artefact (name, f)
        | None ->
          say "unknown artefact %s (have: %s, bechamel)" name
            (String.concat ", " (List.map fst (artefacts ~quick))))
      names;
    write_bench_json ~quick ~jobs "BENCH_engine.json";
    if !profile_inputs <> [] then write_profile_json ~quick "BENCH_profile.json";
    if !server_rows <> [] then write_server_json ~quick ~jobs "BENCH_server.json"
