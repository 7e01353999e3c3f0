(* The cycle-accounting layer: the leaves-sum-to-active-cycles
   invariant across machine configurations, the no-fence ablation,
   spin-candidate detection on a hand-built spin loop, and the profile
   renderers (every static fence site named, sum check present,
   profiling timing-neutral). *)

module Obs = Fscope_obs
module W = Fscope_workloads
module Registry = Fscope_workloads.Registry
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module E = Fscope_experiments
module Instr = Fscope_isa.Instr
module Asm = Fscope_isa.Asm
module Program = Fscope_isa.Program
module Reg = Fscope_isa.Reg

let level1 = W.Privwork.fig12_levels.(0)

let small name =
  E.Exp_run.workload
    ~params:{ Registry.default_params with level = level1; attempts = 3; size = Some 16 }
    name

let configs =
  [
    ("S", E.Exp_run.s_config Config.default);
    ("T", E.Exp_run.t_config Config.default);
    ("S+", E.Exp_run.s_plus Config.default);
    ("T+", E.Exp_run.t_plus Config.default);
    ("NF", E.Exp_run.nf_config Config.default);
  ]

(* ------------------------------------------------------------------ *)
(* Invariant: per core, the CPI leaves sum exactly to the
   independently-counted active cycles, under every configuration.     *)
(* ------------------------------------------------------------------ *)

let test_cpi_sums_to_active () =
  List.iter
    (fun wname ->
      let w = small wname in
      List.iter
        (fun (cname, config) ->
          let r = Machine.run config w.W.Workload.program in
          Array.iteri
            (fun i cpi ->
              let active = r.Machine.core_stats.(i).Fscope_cpu.Core.active_cycles in
              Alcotest.(check int)
                (Printf.sprintf "%s [%s] core %d: leaves sum = active cycles" wname cname i)
                active (Obs.Cpi.total cpi))
            r.Machine.core_cpi)
        configs)
    [ "dekker"; "msn"; "barnes" ]

(* The no-fence ablation retires fences as nops: no cycle can be
   charged to any fence-wait leaf, yet everything else still adds up. *)
let test_no_fence_zero_fence_leaves () =
  let w = small "dekker" in
  let r = Machine.run (E.Exp_run.nf_config Config.default) w.W.Workload.program in
  Array.iteri
    (fun i cpi ->
      Alcotest.(check int)
        (Printf.sprintf "core %d: no fence-wait cycles under no-fence" i)
        0 (Obs.Cpi.fence_cycles cpi);
      (* fences still commit — they are nops, not removed *)
      Alcotest.(check bool)
        (Printf.sprintf "core %d: fences still commit" i)
        true
        (r.Machine.core_stats.(i).Fscope_cpu.Core.committed_fences > 0))
    r.Machine.core_cpi

(* ------------------------------------------------------------------ *)
(* Spin detection: a hand-built load/branch-back wait loop with the
   producing store delayed behind memory latency must charge
   Spin_candidate cycles and count iterations at the loop's pc.        *)
(* ------------------------------------------------------------------ *)

let spin_program () =
  let r1 = Reg.r 1 and r2 = Reg.r 2 in
  (* thread 0: a four-deep dependent pointer chase (each hop a cold
     miss, so ~4 memory latencies back to back), then publish
     flag := 1.  The chase keeps the waiter spinning long after its
     own first cold miss on the flag resolves. *)
  let t0 = Asm.create () in
  Asm.emit t0 (Instr.Li (r2, 64));
  for _ = 1 to 4 do
    Asm.emit t0 (Instr.Load { dst = r2; base = r2; off = 0; flagged = false })
  done;
  Asm.emit t0 (Instr.Li (r1, 1));
  Asm.emit t0 (Instr.Store { src = r1; base = Reg.zero; off = 0; flagged = false });
  Asm.emit t0 Instr.Halt;
  (* thread 1: while (mem[0] = 0) loop *)
  let t1 = Asm.create () in
  let loop = Asm.fresh_label t1 in
  Asm.place t1 loop;
  Asm.emit t1 (Instr.Load { dst = r1; base = Reg.zero; off = 0; flagged = false });
  Asm.branch t1 Instr.Eqz r1 loop;
  Asm.emit t1 Instr.Halt;
  Program.make
    ~threads:[ Asm.finish t0; Asm.finish t1 ]
    ~mem_words:512
    ~init:[ (64, 128); (128, 192); (192, 256) ]
    ()

let test_spin_detection () =
  let program = spin_program () in
  let trace = Obs.Trace.create ~ring_capacity:1024 ~cores:2 () in
  let r = Machine.run ~obs:trace (E.Exp_run.t_config Config.default) program in
  Alcotest.(check bool) "finished" false r.Machine.timed_out;
  Alcotest.(check bool) "spin cycles charged on the waiter" true
    (Obs.Cpi.get r.Machine.core_cpi.(1) Obs.Cpi.Spin_candidate > 0);
  Alcotest.(check int) "no spin cycles on the publisher" 0
    (Obs.Cpi.get r.Machine.core_cpi.(0) Obs.Cpi.Spin_candidate);
  (* the static backward edge is found, and the traced counter at that
     pc saw iterations *)
  (match E.Profiling.spin_pcs program with
  | [ (1, pc) ] ->
    let report = Option.get r.Machine.obs in
    let iters =
      Obs.Metrics.find_counter report.Obs.Report.metrics
        (Printf.sprintf "core1/spin/pc%d" pc)
    in
    Alcotest.(check bool) "iterations counted at the loop pc" true
      (match iters with Some n -> n > 1 | None -> false)
  | sites ->
    Alcotest.failf "expected exactly the waiter's backward edge, got %d sites"
      (List.length sites))

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_profile_text_names_sites () =
  let w = small "dekker" in
  let input = E.Profiling.profile (E.Exp_run.s_config Config.default) w in
  let text = Obs.Profile.text input in
  Alcotest.(check bool) "sum check line" true
    (contains ~needle:"(= active cycles: ok)" text);
  let sites = E.Profiling.fence_sites w.W.Workload.program in
  Alcotest.(check bool) "program has static fence sites" true (sites <> []);
  List.iter
    (fun (s : Obs.Profile.fence_site) ->
      Alcotest.(check bool)
        (Printf.sprintf "site core %d pc %d named" s.Obs.Profile.core s.Obs.Profile.pc)
        true
        (contains ~needle:(Printf.sprintf "  %-4d %-5d" s.Obs.Profile.core s.Obs.Profile.pc) text))
    sites;
  List.iter
    (fun leaf ->
      Alcotest.(check bool)
        (Printf.sprintf "leaf %s listed" (Obs.Cpi.name leaf))
        true
        (contains ~needle:(Obs.Cpi.name leaf) text))
    Obs.Cpi.leaves

let test_profile_json_shape () =
  let w = small "dekker" in
  let input = E.Profiling.profile (E.Exp_run.s_config Config.default) w in
  let json = Fscope_util.Json.render (Obs.Profile.json input) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle json))
    [
      "\"schema\":\"fence-scoping/profile/v2\"";
      "\"label\":\"dekker\"";
      "\"config\":\"sfence\"";
      "\"cpi_sums_to_active\":true";
      "\"fence_sites\":[{";
      "\"spin_sites\":";
    ]

(* Profiling is observational: the traced, profiled run's cycle count
   is bit-identical to a plain run under the same config. *)
let test_profile_timing_neutral () =
  let w = small "msn" in
  List.iter
    (fun (cname, config) ->
      let plain = Machine.run config w.W.Workload.program in
      let input = E.Profiling.profile config w in
      Alcotest.(check int)
        (Printf.sprintf "[%s] profiled cycles = plain cycles" cname)
        plain.Machine.cycles input.Obs.Profile.cycles)
    configs

(* A 64-core run has 2-digit core ids and 5-digit pcs: every data row
   of a rendered table must stay as wide as its neighbours — the
   original fixed-width renderer silently overflowed its columns. *)
let test_text_columns_survive_64_cores () =
  let w = W.Mpmc.make ~threads:64 ~per_producer:4 ~scope:`Class () in
  let config = Config.v ~base:(E.Exp_run.s_config Config.default) ~max_cycles:100_000 () in
  let input = E.Profiling.profile config w in
  let lines = String.split_on_char '\n' (Obs.Profile.text input) in
  (* fence-site rows: everything between the "fence sites:" header and
     the next blank line, header row included *)
  let rec section acc = function
    | [] -> List.rev acc
    | l :: rest ->
      if l = "" then List.rev acc else section (l :: acc) rest
  in
  let after marker =
    let rec go = function
      | [] -> Alcotest.fail (Printf.sprintf "no %S section" marker)
      | l :: rest -> if l = marker then rest else go rest
    in
    go lines
  in
  let check_equal_widths what rows =
    match rows with
    | [] -> Alcotest.fail (what ^ ": empty section")
    | first :: _ ->
      List.iter
        (fun row ->
          Alcotest.(check int)
            (Printf.sprintf "%s row widths equal (%s)" what (String.trim row))
            (String.length first) (String.length row))
        rows
  in
  check_equal_widths "fence sites" (section [] (after "fence sites:"));
  (* per-core lines must align too: same "core <id>" prefix width *)
  let core_rows =
    List.filter
      (fun l ->
        String.length l > 7
        && String.sub l 0 7 = "  core "
        && (match l.[7] with '0' .. '9' -> true | _ -> false))
      lines
  in
  Alcotest.(check int) "64 per-core rows" 64 (List.length core_rows);
  check_equal_widths "per-core sums" core_rows

let tests =
  [
    Alcotest.test_case "CPI leaves sum to active cycles" `Quick test_cpi_sums_to_active;
    Alcotest.test_case "no-fence: zero fence leaves" `Quick test_no_fence_zero_fence_leaves;
    Alcotest.test_case "spin loop charges Spin_candidate" `Quick test_spin_detection;
    Alcotest.test_case "profile text names every fence site" `Quick
      test_profile_text_names_sites;
    Alcotest.test_case "profile json shape" `Quick test_profile_json_shape;
    Alcotest.test_case "profiling is timing-neutral" `Quick test_profile_timing_neutral;
    Alcotest.test_case "text columns survive 64 cores" `Slow
      test_text_columns_survive_64_cores;
  ]
