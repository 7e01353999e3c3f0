(* Interval sampling (DESIGN §15).  The sampled engine must keep
   functional behaviour exact — workload validation passes, final
   memory is a legal execution — while estimating cycle-valued
   metrics.  The estimate error is bounded deterministically here on a
   small contended workload (same machine, same program, fixed
   schedule => fixed estimate), and again at bench scale by
   [bench/main.exe sampled] which writes the bound into
   BENCH_engine.json.  Note the sampled run is a DIFFERENT legal
   execution of a contended program (spin iteration counts change
   across the functional legs), so these tests bound errors instead of
   asserting counter identity. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Checkpoint = Fscope_machine.Checkpoint
module Workload = Fscope_workloads.Workload
module Mpmc = Fscope_workloads.Mpmc
module Spin_barrier = Fscope_workloads.Spin_barrier

(* short windows so the tiny test workload alternates modes a few
   times instead of finishing inside the first detailed window *)
let schedule = { Config.warmup = 100; detailed = 500; ff_instrs = 1_000 }
let sampled config = Config.v ~base:config ~sampling:(Some schedule) ()
let mpmc () = Mpmc.make ~threads:8 ~per_producer:32 ~scope:`Class ()

(* cycle-estimate error bounds, mirroring the bench gate *)
let cycles_err_bound = 25.0 (* per cent *)
let fence_err_bound = 10.0 (* percentage points *)

(* Sampled windows step under the exact engine's spin fast-forward
   rule: on a spin-heavy workload cores sleep inside the windows, and
   the result is the one the run gets with the optimisation off.  The
   second schedule's warmups end just after spinners start a stability
   chain; the warmup erase rewinds the counters that chain's per-period
   deltas are taken against, so it must restart the chain. *)
let test_sampled_validates () =
  let r = Workload.run_validated (sampled Config.default) (mpmc ()) in
  Alcotest.(check bool) "not timed out" false r.Machine.timed_out;
  List.iter
    (fun (label, w, s) ->
      let on = Config.v ~sampling:(Some s) () in
      let ff_on = Workload.run_validated on w in
      let ff_off =
        Workload.run_validated (Config.v ~base:on ~spin_fastforward:false ()) w
      in
      Alcotest.(check bool)
        (label ^ ": spinners slept")
        true
        (ff_on.Machine.spin.Machine.sleeps > 0);
      Alcotest.(check bool)
        (label ^ ": FF on == FF off")
        true
        (Machine.same_outcome ff_on ff_off))
    [
      ("spin-barrier", Spin_barrier.make ~rounds:10 (), schedule);
      ( "spin-barrier, warmups ending mid-chain",
        Spin_barrier.make ~threads:4 ~rounds:30 ~delay:3 (),
        { Config.warmup = 53; detailed = 28; ff_instrs = 59 } );
    ]

let test_error_bounds () =
  let w = mpmc () in
  let detailed = Workload.run_validated Config.default w in
  let s = Workload.run_validated (sampled Config.default) w in
  let cycles_err =
    Float.abs (float_of_int s.Machine.cycles -. float_of_int detailed.Machine.cycles)
    /. float_of_int detailed.Machine.cycles
    *. 100.0
  in
  if cycles_err > cycles_err_bound then
    Alcotest.failf "cycle estimate off by %.1f%% (detailed %d, sampled %d)" cycles_err
      detailed.Machine.cycles s.Machine.cycles;
  let fence_err =
    Float.abs
      (Machine.fence_stall_fraction s -. Machine.fence_stall_fraction detailed)
    *. 100.0
  in
  if fence_err > fence_err_bound then
    Alcotest.failf "fence-share estimate off by %.1fpp" fence_err

(* With sampling off the config routes through the standard engine:
   cycles must be bit-identical to the naive reference loop.  (The
   differential suite enforces this broadly; this pins the dispatch.) *)
let test_sampling_off_identity () =
  let w = mpmc () in
  let a = Workload.run_validated Config.default w in
  let b =
    Workload.run_validated (Config.v ~sampling:None ()) w
  in
  Alcotest.(check int) "sampling None == default engine" a.Machine.cycles
    b.Machine.cycles;
  let r = Machine.run_reference Config.default w.Workload.program in
  Alcotest.(check int) "default engine == reference" r.Machine.cycles
    a.Machine.cycles

let test_checkpoint_sampling_rejected () =
  let w = mpmc () in
  Alcotest.check_raises "sampling + checkpoint rejected"
    (Invalid_argument "Machine.run: sampling and checkpointing are incompatible")
    (fun () ->
      ignore
        (Machine.run
           ~checkpoint:(100, fun _ -> ())
           (sampled Config.default) w.Workload.program))

let test_bad_schedule_rejected () =
  Alcotest.check_raises "non-positive detailed window rejected"
    (Invalid_argument "Config.sampling: detailed window must be positive")
    (fun () ->
      ignore
        (Config.v ~sampling:(Some { Config.warmup = 0; detailed = 0; ff_instrs = 1 }) ()))

(* Sampled results pinned to recorded values, so a change to how
   detailed windows are stepped cannot move the estimate unnoticed.
   The expected
   strings were recorded from the engine whose windows stepped every
   core every cycle; the event-horizon stepper must land every window
   on exactly the same state.  The digests were re-derived when the CPI
   table lost its four never-charged fence leaves, from the engine just
   before that change made to assert those leaves were 0 and to hash
   only the other 11; cycles, windows and committed counts did not
   change. *)
let pinned_summary (r : Machine.result) =
  let b = Buffer.create 4096 in
  let add v = Buffer.add_string b (string_of_int v ^ ",") in
  Array.iter (fun cpi -> Array.iter add (Fscope_obs.Cpi.to_array cpi)) r.Machine.core_cpi;
  Buffer.add_char b '|';
  Array.iter add r.Machine.mem;
  Printf.sprintf "cycles=%d windows=%s committed=%s digest=%s" r.Machine.cycles
    (String.concat ";"
       (List.map (fun (a, z) -> Printf.sprintf "%d-%d" a z) r.Machine.sample_windows))
    (String.concat ","
       (Array.to_list
          (Array.map (fun (s : Fscope_cpu.Core.stats) -> string_of_int s.committed)
             r.Machine.core_stats)))
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_sampled_pinned () =
  let w = Mpmc.make ~threads:8 ~per_producer:16 ~scope:`Class () in
  List.iter
    (fun (label, mem_model, s, expected) ->
      let config = Config.v ~mem_model ~sampling:(Some s) () in
      Alcotest.(check string) label expected
        (pinned_summary (Machine.run config w.Workload.program)))
    [
      ( "default schedule, hierarchy",
        Config.Hierarchy,
        Config.sampling_default,
        "cycles=11708 windows=0-999 committed=19093,14278,18790,18844,19193,18957,18962,19013 digest=b24237436fc44dcd57182456c1876309" );
      ( "default schedule, ideal",
        Config.Ideal,
        Config.sampling_default,
        "cycles=8375 windows=0-999 committed=19093,14303,18872,18471,18525,18540,18470,18469 digest=2e4566f6bfe3acaa00e43102f24044ec" );
      ( "short windows, hierarchy",
        Config.Hierarchy,
        schedule,
        "cycles=10946 windows=0-499;600-1099;1200-1699;1976-2475;2576-3075;3176-3675;3776-4275;4376-4875;4976-5475 committed=19093,14278,18078,16798,16963,18607,16703,17288 digest=5225f7f2e454ad23cde9b303dcbd8669" );
      ( "short windows, ideal",
        Config.Ideal,
        schedule,
        "cycles=7687 windows=0-499;600-1099;1200-1699;1800-2299;2400-2899;3000-3499;3600-4099;4200-4526 committed=19093,14278,17899,17610,17559,17395,17879,17936 digest=53ca595629edfca3b81b8f2a59d4834e" );
    ]

let tests =
  [
    Alcotest.test_case "sampled results match recorded values" `Quick
      test_sampled_pinned;
    Alcotest.test_case "sampled runs validate, spin fast-forward bit-identical" `Quick
      test_sampled_validates;
    Alcotest.test_case "cycle and fence-share estimate error bounds" `Quick
      test_error_bounds;
    Alcotest.test_case "sampling off is bit-identical dispatch" `Quick
      test_sampling_off_identity;
    Alcotest.test_case "sampling + checkpointing rejected" `Quick
      test_checkpoint_sampling_rejected;
    Alcotest.test_case "invalid schedule rejected" `Quick test_bad_schedule_rejected;
  ]
