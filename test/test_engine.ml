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

(* The shard/ metric family counts lockstep traffic of the host
   execution (barrier generations crossed, cycles run inside elided
   spans) — a sequential reference run crosses no barriers, so these
   are the one family allowed to differ between the engines under
   comparison.  trend.ml classes them Gate_never for the same
   reason.  Every other line must match byte for byte. *)
let strip_shard_metrics s =
  let keeps line =
    let has needle =
      let nl = String.length needle and ll = String.length line in
      let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
      go 0
    in
    not (has "shard/barriers_total" || has "shard/elided_cycles")
  in
  String.concat "\n" (List.filter keeps (String.split_on_char '\n' s))

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
    (strip_shard_metrics (Obs.Sink.jsonl ref_rep))
    (strip_shard_metrics (Obs.Sink.jsonl engine_rep));
  Alcotest.(check string)
    (label ^ ": metrics summary")
    (strip_shard_metrics (Obs.Sink.summary ref_rep))
    (strip_shard_metrics (Obs.Sink.summary engine_rep))

let test_traced_identical () =
  let w = E.Exp_run.workload ~params:{ Registry.default_params with rounds = Some 4 } "wsq" in
  let program = w.Fscope_workloads.Workload.program in
  let config = E.Exp_run.s_config Config.default in
  check_traced_matches_reference ~label:"seq" config program

(* The sharded engine must be invisible to the observability layer
   too: with the machine's cores split across domains, a traced run
   still produces the same event stream and metrics as the traced
   sequential reference — wakes, drains and fence stalls land on the
   same cycles in the same order. *)
let test_sharded_traced_identical () =
  let w = E.Exp_run.workload ~params:{ Registry.default_params with rounds = Some 4 } "wsq" in
  let program = w.Fscope_workloads.Workload.program in
  List.iter
    (fun shards ->
      let config =
        Config.v ~base:(E.Exp_run.s_config Config.default) ~shard_domains:shards ()
      in
      check_traced_matches_reference
        ~label:(Printf.sprintf "%d shards" shards)
        config program)
    [ 2; 4 ]

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

let tests =
  [
    Alcotest.test_case "fig12 parallel fan-out is deterministic" `Quick
      (test_jobs_identical "fig12" render_fig12);
    Alcotest.test_case "fig13 parallel fan-out is deterministic" `Quick
      (test_jobs_identical "fig13" render_fig13);
    Alcotest.test_case "traced engine run matches traced reference" `Quick
      test_traced_identical;
    Alcotest.test_case "traced sharded run matches traced reference" `Quick
      test_sharded_traced_identical;
    Alcotest.test_case "spin fast-forward sleeps and stays bit-identical" `Quick
      test_spin_fastforward;
    Alcotest.test_case "raising checkpoint sink poisons and joins the team" `Quick
      test_poisoned_team;
  ]
