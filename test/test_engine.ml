(* Engine-level end-to-end properties:

   - the domain-parallel experiment runner must not change any
     rendered artefact: fig12/fig13 tables are byte-identical whether
     the points run sequentially or fanned across 4 domains;
   - a traced fast-forward run must match a traced reference run
     event-for-event and metric-for-metric, not just in its result
     record (the engine skips frozen spans, so this pins down that no
     observable is emitted or timed differently across a jump). *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Table = Fscope_util.Table
module Obs = Fscope_obs
module Registry = Fscope_workloads.Registry
module E = Fscope_experiments

let with_jobs n f =
  E.Exp_run.set_jobs n;
  Fun.protect ~finally:(fun () -> E.Exp_run.set_jobs 1) f

let render_fig12 () = Table.render (E.Fig12.table (E.Fig12.run ~quick:true ()))
let render_fig13 () = Table.render (E.Fig13.table (E.Fig13.run ~quick:true ()))

let test_jobs_identical name render () =
  let seq = with_jobs 1 render in
  let par = with_jobs 4 render in
  Alcotest.(check string) (name ^ ": --jobs 1 and --jobs 4 render identically") seq par

let traced_run config program runner =
  let cores = Fscope_isa.Program.thread_count program in
  let trace = Obs.Trace.create ~ring_capacity:65536 ~cores () in
  let result = runner ~obs:trace config program in
  match result.Machine.obs with
  | Some report -> (result, report)
  | None -> Alcotest.fail "traced run produced no report"

let check_traced_matches_reference ~label config program =
  let engine_r, engine_rep =
    traced_run config program (fun ~obs c p -> Machine.run ~obs c p)
  in
  let ref_r, ref_rep =
    traced_run config program (fun ~obs c p -> Machine.run_reference ~obs c p)
  in
  Alcotest.(check int) (label ^ ": cycles") ref_r.Machine.cycles engine_r.Machine.cycles;
  Alcotest.(check int)
    (label ^ ": events")
    (Obs.Report.events_count ref_rep)
    (Obs.Report.events_count engine_rep);
  Alcotest.(check string)
    (label ^ ": event stream (jsonl)")
    (Obs.Sink.jsonl ref_rep) (Obs.Sink.jsonl engine_rep);
  Alcotest.(check string)
    (label ^ ": metrics summary")
    (Obs.Sink.summary ref_rep) (Obs.Sink.summary engine_rep)

let test_traced_identical () =
  let w = E.Exp_run.workload ~params:{ Registry.default_params with rounds = Some 4 } "wsq" in
  let program = w.Fscope_workloads.Workload.program in
  let config = E.Exp_run.s_config Config.default in
  check_traced_matches_reference ~label:"seq" config program

(* Only untraced exact runs shard.  A traced run steps on one domain
   whatever [shard_domains] says, so its rendered trace is the same
   document at any shard count; a sampled run does too, so it matches
   the one-domain run and its team never crossed a barrier. *)
let test_traced_sampled_unsharded () =
  let w =
    E.Exp_run.workload ~params:{ Registry.default_params with attempts = 10 } "dekker"
  in
  let traced shards =
    snd
      (traced_run
         (Config.v ~shard_domains:shards ())
         w.Fscope_workloads.Workload.program
         (fun ~obs c p -> Machine.run ~obs c p))
  in
  let one = traced 1 and four = traced 4 in
  (* a bool, not a string check: a failure would print two whole traces *)
  Alcotest.(check bool)
    "traced jsonl at 4 shards == 1" true
    (String.equal (Obs.Sink.jsonl one) (Obs.Sink.jsonl four));
  Alcotest.(check bool)
    "traced chrome at 4 shards == 1" true
    (String.equal (Obs.Sink.chrome one) (Obs.Sink.chrome four));
  let mpmc = Fscope_workloads.Mpmc.make ~threads:8 ~per_producer:16 ~scope:`Class () in
  let sampled shards =
    Machine.run
      (Config.v ~shard_domains:shards
         ~sampling:(Some { Config.warmup = 100; detailed = 500; ff_instrs = 1_000 })
         ())
      mpmc.Fscope_workloads.Workload.program
  in
  let one = sampled 1 and four = sampled 4 in
  Alcotest.(check bool) "sampled at 4 shards == 1" true (Machine.same_outcome one four);
  Alcotest.(check int) "sampled run crossed no barrier" 0 four.Machine.shard.Machine.barriers

(* Spin fast-forward regression: a two-core flag handshake.  Core 0
   counts down a few thousand iterations (a counting loop whose ARF
   changes every boundary — the stability probe must refuse to arm it),
   then publishes a value and raises a flag; core 1 spins on the flag.
   The engine must actually put the spinner into spin-sleep and replay
   the skipped iterations in closed form (the exposed
   [spin.cycles_skipped] engine stat is positive), while every other
   result field stays bit-identical to the naive reference loop, with
   the optimisation on or off. *)
let test_spin_fastforward () =
  let open Fscope_isa in
  let r n = Reg.r n in
  let worker =
    [|
      Instr.Li (r 1, 4000);
      Instr.Alu (Instr.Sub, r 1, r 1, Instr.Imm 1);
      Instr.Branch { cond = Instr.Nez; src = r 1; target = 1 };
      Instr.Li (r 2, 42);
      Instr.Store { src = r 2; base = Reg.zero; off = 1; flagged = false };
      Instr.Li (r 3, 1);
      Instr.Store { src = r 3; base = Reg.zero; off = 0; flagged = false };
      Instr.Halt;
    |]
  in
  let spinner =
    [|
      Instr.Load { dst = r 1; base = Reg.zero; off = 0; flagged = false };
      Instr.Branch { cond = Instr.Eqz; src = r 1; target = 0 };
      Instr.Load { dst = r 2; base = Reg.zero; off = 1; flagged = false };
      Instr.Store { src = r 2; base = Reg.zero; off = 2; flagged = false };
      Instr.Halt;
    |]
  in
  let program = Program.make ~threads:[ worker; spinner ] ~mem_words:8 () in
  let config = Config.default in
  let ff_on = Machine.run config program in
  let ff_off = Machine.run (Config.v ~base:config ~spin_fastforward:false ()) program in
  let reference = Machine.run_reference config program in
  Alcotest.(check bool) "FF on == reference (up to spin counters)" true
    (Machine.same_outcome ff_on reference);
  Alcotest.(check bool) "FF off == reference" true (Machine.same_outcome ff_off reference);
  Alcotest.(check int) "handshake value arrived" 42 ff_on.Machine.mem.(2);
  Alcotest.(check bool) "spinner was put to sleep" true (ff_on.Machine.spin.Machine.sleeps > 0);
  Alcotest.(check bool) "engine stats expose skipped cycles" true
    (ff_on.Machine.spin.Machine.cycles_skipped > 0);
  Alcotest.(check int) "FF off skipped nothing" 0 ff_off.Machine.spin.Machine.cycles_skipped

(* A checkpoint sink that raises while a 4-core run is split across
   two domains: the worker domain is parked between legs, so the run
   must poison it, join it and hand back the sink's own exception —
   returning, not hanging.  A second sharded run afterwards must still
   be bit-identical to the sequential engine. *)
exception Sink_failed

let test_poisoned_team () =
  let w = Fscope_workloads.Mpmc.make ~threads:4 ~per_producer:8 ~scope:`Class () in
  let program = w.Fscope_workloads.Workload.program in
  let sharded = Config.v ~shard_domains:2 () in
  (match Machine.run ~checkpoint:(100, fun _ -> raise Sink_failed) sharded program with
  | _ -> Alcotest.fail "the run swallowed the sink's exception"
  | exception Sink_failed -> ());
  Alcotest.(check bool) "sharded run after a poisoned team == sequential" true
    (Machine.same_outcome (Machine.run sharded program) (Machine.run Config.default program))

(* A step that raises inside a worker domain.  Core 1 of a 4-core run
   split across two domains counts down, then commits a store to word
   1000 of an 8-word memory.  Under the ideal memory model with spin
   fast-forward off every phase-3 step is FREE, so core 1's owner —
   domain 1, not the driver's — steps the faulting commit.  The run
   must poison the team, join it and hand back the step's own
   exception, the one a one-domain run raises; a sharded run
   afterwards must still be bit-identical to the sequential engine. *)
let test_worker_step_raises () =
  let open Fscope_isa in
  let r n = Reg.r n in
  let faulting =
    [|
      Instr.Li (r 1, 50);
      Instr.Alu (Instr.Sub, r 1, r 1, Instr.Imm 1);
      Instr.Branch { cond = Instr.Nez; src = r 1; target = 1 };
      Instr.Li (r 2, 7);
      Instr.Store { src = r 2; base = Reg.zero; off = 1000; flagged = false };
      Instr.Halt;
    |]
  in
  let idle = [| Instr.Halt |] in
  let program = Program.make ~threads:[ idle; faulting; idle; idle ] ~mem_words:8 () in
  let expected = Invalid_argument "core 1: store to out-of-bounds address 1000 (pc 4)" in
  List.iter
    (fun shards ->
      let config =
        Config.v ~mem_model:Config.Ideal ~spin_fastforward:false ~shard_domains:shards ()
      in
      match Machine.run config program with
      | _ -> Alcotest.failf "%d shard(s): the run swallowed the out-of-bounds store" shards
      | exception e ->
        Alcotest.(check string)
          (Printf.sprintf "%d shard(s): the step's own exception" shards)
          (Printexc.to_string expected) (Printexc.to_string e))
    [ 1; 2 ];
  let w = Fscope_workloads.Mpmc.make ~threads:4 ~per_producer:8 ~scope:`Class () in
  let program = w.Fscope_workloads.Workload.program in
  Alcotest.(check bool) "sharded run after a raising step == sequential" true
    (Machine.same_outcome
       (Machine.run (Config.v ~shard_domains:2 ()) program)
       (Machine.run Config.default program))

(* [max_cycles] is a timeout under every engine mode.  Three cores
   jump to themselves forever and a fourth spins on a load of a word
   nobody writes, so spin fast-forward puts cores to sleep and the cap
   must catch them up.  Every run reports [timed_out]; the exact ones
   (one and two shards, the naive loop, a traced run, a run cut into
   checkpoint legs that do not divide the cap) stop at exactly the cap
   and agree pairwise. *)
let test_max_cycles_timeout () =
  let open Fscope_isa in
  let r n = Reg.r n in
  let forever = [| Instr.Jump 0 |] in
  let spinner =
    [|
      Instr.Load { dst = r 1; base = Reg.zero; off = 0; flagged = false };
      Instr.Branch { cond = Instr.Eqz; src = r 1; target = 0 };
      Instr.Halt;
    |]
  in
  let program =
    Program.make ~threads:[ forever; forever; forever; spinner ] ~mem_words:8 ()
  in
  let max_cycles = 5000 in
  let config = Config.v ~max_cycles () in
  let traced =
    let trace = Obs.Trace.create ~cores:4 () in
    { (Machine.run ~obs:trace config program) with Machine.obs = None }
  in
  let exact =
    [
      ("1 shard", Machine.run config program);
      ("2 shards", Machine.run (Config.v ~base:config ~shard_domains:2 ()) program);
      ("reference", Machine.run_reference config program);
      ("traced", traced);
      ("checkpoint legs", Machine.run ~checkpoint:(700, ignore) config program);
    ]
  in
  Alcotest.(check bool) "spin fast-forward slept" true
    ((List.assoc "1 shard" exact).Machine.spin.Machine.sleeps > 0);
  List.iter
    (fun (label, (r : Machine.result)) ->
      Alcotest.(check bool) (label ^ ": timed out") true r.Machine.timed_out;
      Alcotest.(check int) (label ^ ": cycles") max_cycles r.Machine.cycles;
      List.iter
        (fun (other, r') ->
          Alcotest.(check bool) (label ^ " == " ^ other) true (Machine.same_outcome r r'))
        exact)
    exact;
  (* sampled, with the cap past the first window and inside it *)
  List.iter
    (fun max_cycles ->
      let sampled =
        Machine.run
          (Config.v ~base:config ~max_cycles ~sampling:(Some Config.sampling_default) ())
          program
      in
      let label = Printf.sprintf "sampled, cap %d" max_cycles in
      Alcotest.(check bool) (label ^ ": timed out") true sampled.Machine.timed_out;
      Alcotest.(check bool) (label ^ ": cycles within the cap") true
        (sampled.Machine.cycles <= max_cycles);
      Alcotest.(check bool) (label ^ ": measured something") true
        (sampled.Machine.sample_windows <> []);
      List.iter
        (fun (first, last) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: window %d-%d ends before the cap" label first last)
            true (last < max_cycles))
        sampled.Machine.sample_windows)
    [ max_cycles; 300 ]

(* An untraced simulated cycle allocates nothing: the ROB recycles its
   slots, execution state is unboxed, the pipeline's walks take no
   closures and the caches are arrays.  Two runs of the same exact
   point, cut at [cycles] and at [2 * cycles], share their setup (the
   machine, its preallocated ROB slots, the program's memory image),
   so the difference in minor words over the difference in committed
   instructions is what the cycles in between allocate per
   instruction: a new L2 directory entry now and then, nothing else.
   It measures 0.08 here, where the boxed pipeline allocated 250.  The
   bound leaves a margin of 6x for the directory entries of other
   misses; an allocation in the step loop adds several words per
   instruction and fails it. *)
let minor_words_bound = 0.5

(* [obs] makes a fresh trace for each of the two runs. *)
let check_minor_words label ?obs () =
  let w = E.Exp_run.workload ~params:{ Registry.default_params with size = Some 200 } "pst" in
  let program = w.Fscope_workloads.Workload.program in
  let cores = Fscope_isa.Program.thread_count program in
  let run cycles =
    let config = E.Exp_run.s_config (Config.v ~max_cycles:cycles ()) in
    let obs = Option.map (fun mk -> mk ~cores) obs in
    let before = Gc.minor_words () in
    let r = Machine.run ?obs config program in
    (Gc.minor_words () -. before, Machine.committed_instrs r)
  in
  let words1, instrs1 = run 5000 in
  let words2, instrs2 = run 10000 in
  let per_instr = (words2 -. words1) /. float_of_int (instrs2 - instrs1) in
  Printf.printf "%s: pst S, size 200, cycles 5000..10000: %d instructions, %.0f minor words, %.3f per instruction\n"
    label (instrs2 - instrs1) (words2 -. words1) per_instr;
  if per_instr > minor_words_bound then
    Alcotest.failf "%s: %.3f minor words per committed instruction, bound %.1f" label per_instr
      minor_words_bound

let test_cycle_allocates_nothing () = check_minor_words "untraced" ()

(* The traced twin: every emission site writes its event's words
   straight into the core's ring.  The 64-event rings start at their
   full size, so they never grow, and the report built at the end
   decodes nothing; both cuts fill every ring, so whatever the run's
   setup and finish allocate cancels in the difference.  Building an
   [Event.t] per emission measured 14.8 words per instruction here. *)
let test_traced_cycle_allocates_nothing () =
  check_minor_words "traced"
    ~obs:(fun ~cores -> Obs.Trace.create ~ring_capacity:64 ~cores ())
    ()

(* What a run allocates besides its memory image: the machine's cores,
   ROBs and store buffers, the cache tag stores and, when traced, the
   rings.  The caches are allocated by blocks of 64 sets on their first
   fill and the rings by 1024-event chunks as they first reach them, so
   pst S at registry defaults, whose threads touch few sets, no longer
   pays for the whole Table III hierarchy (122,880 words) up front, and
   a 4096-event ring is never grown by copying.  This measures 30.6K
   words untraced and 171.6K with 4096-event rings (131K of them the
   rings, full); allocating the hierarchy in full and doubling the
   rings read 119.8K and 402.0K.  The bounds leave about 30% over the
   chunked figures. *)
let check_major_words label ?obs ~bound () =
  let w = E.Exp_run.workload ~params:Registry.default_params "pst" in
  let program = w.Fscope_workloads.Workload.program in
  let cores = Fscope_isa.Program.thread_count program in
  let config = E.Exp_run.s_config (Config.v ()) in
  let obs = Option.map (fun mk -> mk ~cores) obs in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = Machine.run ?obs config program in
  let words =
    (Gc.quick_stat ()).Gc.major_words -. before
    -. float_of_int program.Fscope_isa.Program.mem_words
  in
  Printf.printf "%s: pst S at registry defaults: %d cycles, %.0f major words besides the %d-word memory image\n"
    label r.Machine.cycles words program.Fscope_isa.Program.mem_words;
  if words > bound then
    Alcotest.failf "%s: %.0f major words besides the memory image, bound %.0f" label words bound

let tests =
  [
    Alcotest.test_case "fig12 parallel fan-out is deterministic" `Quick
      (test_jobs_identical "fig12" render_fig12);
    Alcotest.test_case "fig13 parallel fan-out is deterministic" `Quick
      (test_jobs_identical "fig13" render_fig13);
    Alcotest.test_case "traced engine run matches traced reference" `Quick
      test_traced_identical;
    Alcotest.test_case "traced and sampled runs ignore shard_domains" `Quick
      test_traced_sampled_unsharded;
    Alcotest.test_case "spin fast-forward sleeps and stays bit-identical" `Quick
      test_spin_fastforward;
    Alcotest.test_case "raising checkpoint sink poisons and joins the team" `Quick
      test_poisoned_team;
    Alcotest.test_case "an untraced cycle allocates nothing" `Quick
      test_cycle_allocates_nothing;
    Alcotest.test_case "a traced cycle allocates nothing" `Quick
      test_traced_cycle_allocates_nothing;
    Alcotest.test_case "an untraced run allocates little besides its memory image" `Quick
      (check_major_words "untraced" ~bound:40_000.);
    Alcotest.test_case "a ring-traced run allocates little besides its memory image" `Quick
      (check_major_words "traced"
         ~obs:(fun ~cores -> Obs.Trace.create ~ring_capacity:4096 ~cores ())
         ~bound:225_000.);
    Alcotest.test_case "a step that raises on a worker domain surfaces its own exception"
      `Quick test_worker_step_raises;
    Alcotest.test_case "max_cycles times out identically under every engine mode" `Quick
      test_max_cycles_timeout;
  ]
