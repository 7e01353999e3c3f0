(* Where do fence stalls come from?  This example runs the radiosity
   kernel and splits each variant's fence stalls by the wait the stalled
   fence carried: an S-Fence scope mask (scoped) or the whole store
   buffer (unscoped) — the anatomy behind Fig. 13's bars.  By the time a
   fence reaches the commit head its older ROB entries have retired, so
   a head stall is always store-buffer drain; the interesting numbers
   are how much of it is scoped and how much smaller the scoped drain
   is.

     dune exec examples/fence_anatomy.exe *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Cpi = Fscope_obs.Cpi
module W = Fscope_workloads

let () =
  let workload = W.Radiosity.make () in
  Printf.printf "radiosity kernel: fence-stall anatomy per variant\n\n";
  Printf.printf "  %-4s %9s %10s %10s %10s\n" "cfg" "cycles" "stalls" "scoped" "unscoped";
  List.iter
    (fun (label, config) ->
      let result = W.Workload.run config workload in
      let sum f = Array.fold_left (fun acc c -> acc + f c) 0 result.Machine.core_cpi in
      Printf.printf "  %-4s %9d %10d %10d %10d\n" label result.Machine.cycles
        (sum Cpi.fence_cycles)
        (sum (fun c -> Cpi.fence_scope_cycles c Cpi.Scoped))
        (sum (fun c -> Cpi.fence_scope_cycles c Cpi.Unscoped)))
    [
      ("T", Config.traditional Config.default);
      ("S", Config.scoped Config.default);
    ];
  Printf.printf
    "\nthe scoped fences drain only the flagged (in-scope) store-buffer\n\
     entries: the private visibility scratch no longer holds fences up,\n\
     which is the point of S-FENCE[set] for compiler-enforced SC\n"
