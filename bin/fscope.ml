(* fscope — command-line front end for the fence-scoping simulator.

     fscope list                      the available workloads
     fscope run wsq --traditional     run one workload on one machine
     fscope compare pst               T vs S vs T+ vs S+ side by side
     fscope trace dekker --format=chrome -o trace.json
                                      run with the observability layer on
     fscope profile dekker            CPI stack + per-fence-site attribution
     fscope advise dekker             rank fence sites worth scoping
     fscope report --against bench/baseline
                                      diff BENCH_* artefacts, gate regressions
     fscope disasm dekker             dump the compiled program
     fscope checkpoint save msn --at 5000
                                      save (or resume) a whole-machine checkpoint

   Exit codes (README "Exit codes"): 0 success; 1 bad input, an
   unreadable file or a checkpoint digest mismatch; 2 a timed-out run
   or a gated report regression; 124 a flag cmdliner cannot parse. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Checkpoint = Fscope_machine.Checkpoint
module Json = Fscope_util.Json
module Obs = Fscope_obs
module W = Fscope_workloads
module Registry = Fscope_workloads.Registry
module E = Fscope_experiments

let level_of_int n =
  let levels = W.Privwork.fig12_levels in
  if n < 1 || n > Array.length levels then
    failwith (Printf.sprintf "workload level must be 1..%d" (Array.length levels))
  else levels.(n - 1)

(* Library constructors reject out-of-range values with
   [Invalid_argument]; where those values come from flags they are bad
   input, reported by [guard] like any other. *)
let of_flags f = try f () with Invalid_argument msg -> failwith msg

(* Registry misses (and bad flag values) raise [Failure] with a
   one-line message — "did you mean" included; render it without a
   backtrace.  IO and parse errors from artefact / checkpoint files
   get the same treatment: a missing baseline is a usage error, not a
   crash.  So does a workload program that flag values made
   uncompilable. *)
let guard f =
  try f () with
  | Failure msg ->
    Printf.eprintf "fscope: %s\n" msg;
    1
  | Sys_error msg ->
    Printf.eprintf "fscope: %s\n" msg;
    1
  | Json.Parse_error msg ->
    Printf.eprintf "fscope: invalid JSON: %s\n" msg;
    1
  | Fscope_slang.Typecheck.Error msg | Fscope_slang.Codegen.Error msg ->
    Printf.eprintf "fscope: workload does not compile: %s\n" msg;
    1

(* --sample accepts "default" or WARMUP:DETAILED:FF (instruction count
   for the fast-forward leg, cycles for the two windows). *)
let parse_sampling = function
  | None -> None
  | Some "default" -> Some Config.sampling_default
  | Some spec -> (
    match String.split_on_char ':' spec with
    | [ w; d; f ] -> (
      match (int_of_string_opt w, int_of_string_opt d, int_of_string_opt f) with
      | Some warmup, Some detailed, Some ff_instrs ->
        Some { Config.warmup; detailed; ff_instrs }
      | _ -> failwith (Printf.sprintf "bad --sample spec %S: non-integer field" spec))
    | _ ->
      failwith
        (Printf.sprintf
           "bad --sample spec %S: expected WARMUP:DETAILED:FF or 'default'" spec))

(* Print a command's rendered output, or write it to [-o FILE] and say
   so on stderr. *)
let emit ?(detail = "") output text =
  match output with
  | None -> print_string text
  | Some file ->
    Out_channel.with_open_bin file (fun oc -> output_string oc text);
    Printf.eprintf "wrote %s%s\n" file detail

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

(* Every workload command takes its workload (and most a machine) as a
   thunk built from the shared flag terms below; forcing it inside
   [guard] turns a bad flag value into one "fscope:" line. *)

let cmd_list () =
  let specs =
    List.sort
      (fun (a : Registry.spec) (b : Registry.spec) -> String.compare a.name b.name)
      Registry.all
  in
  List.iter
    (fun (s : Registry.spec) ->
      Printf.printf "%-14s %-30s %s\n" s.name
        ("[" ^ String.concat "," s.tags ^ "]")
        s.description)
    specs;
  0

(* Shared tail of [run] and [checkpoint resume]: print the run summary
   and validate.  Cycle-valued lines are estimates under sampling, but
   committed counts and final memory stay exact, so validation still
   means something there. *)
let print_run_summary (config : Config.t) w (result : Machine.result) =
  if result.Machine.timed_out then begin
    Printf.eprintf "run timed out\n";
    2
  end
  else begin
    Printf.printf "workload:      %s (%s)\n" w.W.Workload.name w.W.Workload.description;
    Printf.printf "cycles:        %d%s\n" result.Machine.cycles
      (if config.Config.sampling <> None then " (sampled estimate)" else "");
    Printf.printf "fence stalls:  %d (%.1f%% of active cycles)\n"
      (Machine.fence_stall_cycles result)
      (100. *. Machine.fence_stall_fraction result);
    Printf.printf "instructions:  %d committed\n" (Machine.committed_instrs result);
    Printf.printf "avg ROB use:   %.1f\n" (Machine.avg_rob_occupancy result);
    (if config.Config.exec.Fscope_cpu.Exec_config.in_window_speculation then
       Printf.printf "validation:    skipped (in-window speculation is timing-only)\n"
     else
       match w.W.Workload.validate result with
       | Ok () -> Printf.printf "validation:    ok\n"
       | Error msg -> Printf.printf "validation:    FAILED — %s\n" msg);
    0
  end

let cmd_run workload machine sample checkpoint_every checkpoint_out =
  guard @@ fun () ->
  let w = workload () in
  let machine = machine () in
  let sampling = parse_sampling sample in
  let config = of_flags (fun () -> Config.v ~base:machine ~sampling ()) in
  let checkpoint =
    match checkpoint_every with
    | None -> None
    | Some every ->
      if every <= 0 then failwith "--checkpoint-every must be positive";
      if sampling <> None then
        failwith "--checkpoint-every cannot be combined with --sample";
      Some (every, fun ck -> Checkpoint.save ck ~file:checkpoint_out)
  in
  let result = Machine.run ?checkpoint config w.W.Workload.program in
  (match checkpoint with
  | Some _ when Sys.file_exists checkpoint_out ->
    Printf.eprintf "checkpoint:    %s\n" checkpoint_out
  | _ -> ());
  print_run_summary config w result

let cmd_compare workload jobs =
  guard @@ fun () ->
  of_flags (fun () -> E.Exp_run.set_jobs jobs);
  let w = workload () in
  let ms =
    E.Exp_run.measure_all
      (List.map
         (fun (_, mk) -> { E.Exp_run.config = mk Config.default; workload = w })
         E.Exp_run.variants)
  in
  let base = List.hd ms in
  Printf.printf "%-4s %10s %14s %9s\n" "cfg" "cycles" "fence stalls" "speedup";
  List.iter2
    (fun (label, _) m ->
      Printf.printf "%-4s %10d %13.1f%% %8.2fx\n" label m.E.Exp_run.cycles
        (100. *. m.E.Exp_run.fence_stall_fraction)
        (E.Exp_run.speedup ~baseline:base m))
    E.Exp_run.variants ms;
  0

let cmd_trace workload machine format output ring_capacity =
  guard @@ fun () ->
  let w = workload () in
  let config = machine () in
  let cores = Fscope_isa.Program.thread_count w.W.Workload.program in
  let trace = of_flags (fun () -> Obs.Trace.create ~ring_capacity ~cores ()) in
  let result = Machine.run ~obs:trace config w.W.Workload.program in
  match result.Machine.obs with
  | None -> Printf.eprintf "internal error: traced run produced no report\n"; 1
  | Some report ->
    (* Server workloads carry an occupancy gauge recoverable from the
       drain stream; folding it into the report's registry surfaces it
       in every sink (partial if the ring dropped events — the summary
       warns). *)
    (match W.Gauges.for_workload ~name:w.W.Workload.name w.W.Workload.program with
    | Some g -> g.W.Gauges.fold report.Obs.Report.metrics (Obs.Trace.iter_events report.Obs.Report.trace)
    | None -> ());
    let text =
      match format with
      | `Jsonl -> Obs.Sink.jsonl report
      | `Chrome -> Obs.Sink.chrome report
      | `Summary -> Obs.Sink.summary report
    in
    emit output text
      ~detail:
        (Printf.sprintf " (%d events, %d dropped)" (Obs.Report.events_count report)
           report.Obs.Report.dropped);
    if result.Machine.timed_out then begin
      Printf.eprintf "run timed out\n";
      2
    end
    else 0

let cmd_profile workload machine no_fence max_cycles format output =
  guard @@ fun () ->
  let w = workload () in
  let config =
    of_flags (fun () -> Config.v ~base:(machine ()) ?max_cycles ~nop_fences:no_fence ())
  in
  let input = E.Profiling.profile config w in
  emit output
    (match format with
    | `Text -> Obs.Profile.text input
    | `Json -> Json.render (Obs.Profile.json input) ^ "\n");
  0

let cmd_advise workload machine jobs max_cycles format output =
  guard @@ fun () ->
  of_flags (fun () -> E.Exp_run.set_jobs jobs);
  let w = workload () in
  let config = of_flags (fun () -> Config.v ~base:(machine ()) ?max_cycles ()) in
  let t_input, s_input = E.Profiling.advise_inputs config w in
  let advice = Obs.Advisor.analyze ~scoped:s_input t_input in
  emit output
    (match format with
    | `Text -> Obs.Advisor.text advice
    | `Json -> Json.render (Obs.Advisor.json advice) ^ "\n");
  0

(* Compare the current BENCH_* artefacts against a baseline generation:
   exit 0 when nothing regressed, 2 when a gated metric moved past the
   threshold, 1 when an artefact fails to load. *)
let cmd_report against current threshold wall_threshold =
  guard @@ fun () ->
  let bench_names = [ "BENCH_engine.json"; "BENCH_profile.json"; "BENCH_server.json" ] in
  let pairs =
    if Sys.file_exists against && Sys.is_directory against then begin
      let cur_dir = Option.value current ~default:"." in
      let pairs =
        List.filter_map
          (fun n ->
            let b = Filename.concat against n and c = Filename.concat cur_dir n in
            if Sys.file_exists b && Sys.file_exists c then Some (b, c) else None)
          bench_names
      in
      if pairs = [] then
        failwith
          (Printf.sprintf "no BENCH_*.json pair found under %s and %s" against cur_dir);
      pairs
    end
    else begin
      if not (Sys.file_exists against) then
        failwith (Printf.sprintf "baseline %s does not exist" against);
      let cur = Option.value current ~default:(Filename.basename against) in
      if not (Sys.file_exists cur) then
        failwith (Printf.sprintf "current artefact %s does not exist" cur);
      [ (against, cur) ]
    end
  in
  let regressed = ref false in
  List.iter
    (fun (b, c) ->
      let baseline = E.Trend.load_file b and current = E.Trend.load_file c in
      let verdict = E.Trend.diff ~threshold ?wall_threshold ~baseline ~current () in
      Fscope_util.Table.print (E.Trend.table ~verdict ~baseline ~current);
      print_endline (E.Trend.summary_line ~verdict ~baseline ~current);
      print_newline ();
      if verdict.E.Trend.v_regressions <> [] then regressed := true)
    pairs;
  if !regressed then 2 else 0

let cmd_disasm workload =
  guard @@ fun () ->
  let w = workload () in
  Format.printf "%a@." Fscope_isa.Program.pp_disassembly w.W.Workload.program;
  0

(* Run the workload just far enough to capture one whole-machine
   checkpoint at the top of cycle --at, write it, and abort
   the rest of the run (the sink raises to cut the simulation short).
   The same machine flags must be given again at resume time — the
   checkpoint digest covers them. *)
exception Captured

let cmd_checkpoint_save workload machine at out compact =
  guard @@ fun () ->
  if at <= 0 then failwith "--at must be positive";
  let w = workload () in
  let config = machine () in
  let saved = ref None in
  let sink ck =
    saved := Some ck;
    raise Captured
  in
  let result =
    try Some (Machine.run ~checkpoint:(at, sink) config w.W.Workload.program)
    with Captured -> None
  in
  match !saved with
  | Some ck ->
    Checkpoint.save ~compact ck ~file:out;
    Printf.printf "wrote %s (cycle %d, %d cores, %d memory words)\n" out
      ck.Checkpoint.cycle
      (Array.length ck.Checkpoint.cores)
      (Array.length ck.Checkpoint.mem);
    0
  | None ->
    let finished =
      match result with
      | Some r -> Printf.sprintf "finished at cycle %d" r.Machine.cycles
      | None -> "finished"
    in
    Printf.eprintf "fscope: run %s before reaching --at %d; no checkpoint written\n"
      finished at;
    1

let cmd_checkpoint_resume workload machine max_cycles from =
  guard @@ fun () ->
  let w = workload () in
  let config = of_flags (fun () -> Config.v ~base:(machine ()) ?max_cycles ()) in
  let ck = Checkpoint.load ~file:from in
  let result = Machine.run ~resume:ck config w.W.Workload.program in
  Printf.eprintf "resumed from %s at cycle %d\n" from ck.Checkpoint.cycle;
  print_run_summary config w result

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

(* The three terms every workload command shares: [workload] (the
   program), [machine] (Table III with its knobs overridden) and
   [variant] (that machine as T, S, T+ or S+).  Each yields a thunk
   the command forces inside [guard]. *)

let workload =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see $(b,fscope list)).")
  and level =
    Arg.(value & opt int 3 & info [ "level"; "l" ] ~docv:"N" ~doc:"Fig. 12 private-workload level (1-6).")
  and set_scope =
    Arg.(value & flag & info [ "set-scope" ] ~doc:"Use S-FENCE[set] instead of S-FENCE[class] where the workload supports both.")
  and rounds =
    Arg.(value & opt (some int) None & info [ "rounds" ] ~docv:"N" ~doc:"Rounds for wsq/nested-scopes (workload default otherwise).")
  and size =
    Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N" ~doc:"Principal size knob (per_producer/keys/nodes/bodies/patches/requests).")
  and threads =
    Arg.(value & opt (some int) None & info [ "threads" ] ~docv:"N" ~doc:"Cores for workloads with a thread-count knob (msn, wsq, spin-barrier, server-*).")
  and seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc:"Traffic trace seed for the server-* workloads (default 1).")
  in
  let make name level set_scope rounds size threads seed () =
    of_flags @@ fun () ->
    let default = Registry.default_params in
    E.Exp_run.workload
      ~params:
        {
          default with
          level = level_of_int level;
          scope = (if set_scope then `Set else `Class);
          rounds;
          size;
          threads;
          seed = Option.value seed ~default:default.seed;
        }
      name
  in
  Term.(const make $ name_arg $ level $ set_scope $ rounds $ size $ threads $ seed)

let machine =
  let mem_latency =
    Arg.(value & opt (some int) None & info [ "mem-latency" ] ~docv:"CYCLES" ~doc:"Memory latency (Table III default: 300).")
  and rob =
    Arg.(value & opt (some int) None & info [ "rob" ] ~docv:"ENTRIES" ~doc:"Reorder buffer size (default 128).")
  and fsb =
    Arg.(value & opt (some int) None & info [ "fsb" ] ~docv:"ENTRIES" ~doc:"Fence scope bit columns (default 4).")
  and mem_model =
    Arg.(
      value
      & opt (enum [ ("hierarchy", Config.Hierarchy); ("ideal", Config.Ideal) ]) Config.Hierarchy
      & info [ "mem-model" ] ~docv:"MODEL"
          ~doc:
            "Memory backend: $(b,hierarchy) (directory-MSI L1/L2 plus main memory, the \
             default) or $(b,ideal) (every access a 1-cycle hit — isolates pipeline \
             effects from the memory system).")
  and no_spin_ff =
    Arg.(
      value & flag
      & info [ "no-spin-ff" ]
          ~doc:
            "Disable the engine's spin fast-forward (sleeping provably-stable spin loops \
             until a cross-core store wakes them).  Timing-neutral: results are \
             bit-identical either way; this only trades simulator wall-clock for a \
             simpler execution.")
  in
  let make mem_latency rob_size fsb_entries mem_model no_spin_ff () =
    of_flags @@ fun () ->
    Config.v ?mem_latency ?rob_size ?fsb_entries ~mem_model
      ~spin_fastforward:(not no_spin_ff) ()
  in
  Term.(const make $ mem_latency $ rob $ fsb $ mem_model $ no_spin_ff)

let variant =
  let traditional =
    Arg.(value & flag & info [ "traditional"; "t" ] ~doc:"Disable the S-Fence hardware (baseline T).")
  and speculate =
    Arg.(value & flag & info [ "speculate" ] ~doc:"Enable in-window speculation (timing-only; validation is skipped).")
  in
  let make machine traditional speculate () =
    Config.v ~base:(machine ()) ~sfence:(not traditional) ~speculation:speculate ()
  in
  Term.(const make $ machine $ traditional $ speculate)

let output_arg =
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the rendered output to $(docv) instead of stdout.")

let text_or_json ~doc =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan the command's independent machine runs ($(b,compare): the four \
           variants; $(b,advise): the T and S profiles) across $(docv) OCaml \
           domains.  Runs are deterministic and results keep their order, so the \
           output is byte-identical for any job count.")

let max_cycles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:
          "Cycle cap for the run (default 30M).  Useful under $(b,--no-fence), which \
           can break a workload's termination protocol; a capped run is profiled and \
           flagged as timed out.")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the available workloads") Term.(const cmd_list $ const ())

let run_cmd =
  let sample =
    Arg.(
      value
      & opt (some string) None
      & info [ "sample" ] ~docv:"SPEC"
          ~doc:
            "Interval sampling: $(b,default) (500-cycle warmup, 1000-cycle detailed \
             window, 20000-instruction functional fast-forward) or an explicit \
             $(b,WARMUP:DETAILED:FF) triple.  Cycle-valued metrics become extrapolated \
             estimates; committed-instruction counts, final memory and validation stay \
             exact.  See DESIGN §15 for the error contract.")
  and checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"CYCLES"
          ~doc:
            "Write a whole-machine checkpoint to $(b,--checkpoint-out) at the top of \
             every multiple of $(docv) cycles the run reaches, each overwriting the last \
             — a crashed or cancelled run can be resumed with $(b,fscope checkpoint \
             resume).  Incompatible with $(b,--sample).")
  and checkpoint_out =
    Arg.(
      value & opt string "fscope.ckpt.json"
      & info [ "checkpoint-out" ] ~docv:"FILE"
          ~doc:"Destination for $(b,--checkpoint-every) snapshots (default \
                fscope.ckpt.json).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload on one machine configuration")
    Term.(const cmd_run $ workload $ variant $ sample $ checkpoint_every $ checkpoint_out)

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Run a workload under T, S, T+ and S+ and compare")
    Term.(const cmd_compare $ workload $ jobs_arg)

let trace_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome); ("summary", `Summary) ]) `Summary
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,jsonl) (one event per line), $(b,chrome) (trace_event JSON for chrome://tracing / Perfetto), or $(b,summary) (human digest).")
  and ring =
    Arg.(value & opt int 65536 & info [ "ring-capacity" ] ~docv:"EVENTS" ~doc:"Per-core event ring capacity; oldest events are dropped beyond it.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one workload with the observability layer on and render the event trace")
    Term.(const cmd_trace $ workload $ variant $ format $ output_arg $ ring)

let profile_cmd =
  let no_fence =
    Arg.(value & flag & info [ "no-fence" ] ~doc:"Retire fences as nops (timing-only ablation; validation is skipped).")
  and format =
    text_or_json ~doc:"Output format: $(b,text) (aligned tables) or $(b,json) (one object)."
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one workload with cycle accounting on and print its CPI stack, \
          per-fence-site attribution, per-scope totals and spin candidates")
    Term.(
      const cmd_profile $ workload $ variant $ no_fence $ max_cycles_arg $ format
      $ output_arg)

let advise_cmd =
  let format =
    text_or_json ~doc:"Output format: $(b,text) (ranked table) or $(b,json) (one object)."
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Profile a workload under traditional and scoped fences and rank its static \
          fence sites by the cycles expected back if each became scoped, with a \
          whole-run speedup prediction")
    Term.(
      const cmd_advise $ workload $ machine $ jobs_arg $ max_cycles_arg $ format
      $ output_arg)

let report_cmd =
  let against =
    Arg.(
      required
      & opt (some string) None
      & info [ "against" ] ~docv:"DIR|JSON"
          ~doc:
            "Baseline to diff against: a directory holding BENCH_*.json artefacts \
             (matched by name against the current directory, or $(b,--current)) or one \
             artefact file.")
  and current =
    Arg.(
      value
      & opt (some string) None
      & info [ "current" ] ~docv:"DIR|JSON"
          ~doc:
            "Current artefacts to compare (default: the working directory when \
             $(b,--against) is a directory, else the baseline's basename).")
  and threshold =
    Arg.(
      value & opt float 5.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Regression threshold for deterministic metrics, in percent worsening \
             (default 5).")
  and wall_threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "wall-threshold" ] ~docv:"PCT"
          ~doc:
            "Also gate wall-clock metrics at $(docv) percent worsening (default: \
             wall-clock rows are advisory).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Diff BENCH_* artefacts against a baseline generation and render the trend \
          table; exits 2 when a gated metric worsened past the threshold")
    Term.(const cmd_report $ against $ current $ threshold $ wall_threshold)

let disasm_cmd =
  Cmd.v
    (Cmd.info "disasm" ~doc:"Print the compiled program of a workload")
    Term.(const cmd_disasm $ workload)

let checkpoint_save_cmd =
  let at =
    Arg.(
      required
      & opt (some int) None
      & info [ "at" ] ~docv:"CYCLE" ~doc:"Capture the checkpoint at the top of cycle $(docv).")
  and out =
    Arg.(
      value & opt string "fscope.ckpt.json"
      & info [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Checkpoint file to write (default fscope.ckpt.json).")
  and compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Write the checkpoint in the compact v3z form: minified (the plain form \
             pretty-prints), with mostly-zero integer arrays (memory image, register \
             files, predictor tables) zero-run elided and repeated elements (cache \
             slots, ROB operand columns) run-length deduplicated.  Several times \
             smaller at production core counts; $(b,fscope checkpoint resume) reads \
             both forms and the resumed run is bit-identical either way.")
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:
         "Run a workload up to a cycle and write the whole-machine state as a \
          checkpoint file (the rest of the run is skipped)")
    Term.(const cmd_checkpoint_save $ workload $ variant $ at $ out $ compact)

let checkpoint_resume_cmd =
  let from =
    Arg.(
      required
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE" ~doc:"Checkpoint file to resume from.")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume a run from a checkpoint file and carry it to completion — \
          bit-identical to the uninterrupted run.  Machine flags and workload knobs \
          must match the saving run (the checkpoint digest covers them); \
          $(b,--max-cycles) may differ, so a resume can extend the cycle budget.")
    Term.(const cmd_checkpoint_resume $ workload $ variant $ max_cycles_arg $ from)

let checkpoint_cmd =
  Cmd.group
    (Cmd.info "checkpoint"
       ~doc:"Save and resume whole-machine checkpoints (DESIGN §15)")
    [ checkpoint_save_cmd; checkpoint_resume_cmd ]

let main_cmd =
  let doc = "cycle-level simulator for scoped fences (SC '14 'Fence Scoping')" in
  Cmd.group (Cmd.info "fscope" ~doc)
    [
      list_cmd; run_cmd; compare_cmd; trace_cmd; profile_cmd; advise_cmd; report_cmd;
      disasm_cmd; checkpoint_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
