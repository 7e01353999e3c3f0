(* Workload-level tests: every benchmark must pass its own functional
   validation on both machine variants, at small sizes, and the scoped
   machine must never lose to the traditional one by more than noise. *)

module W = Fscope_workloads
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Rng = Fscope_util.Rng

let level = W.Privwork.fig12_levels.(2)
let small_level = { W.Privwork.arith = 8; stores = 1; span = 0; warm = false }

let check_both name make =
  let w = make () in
  let t = W.Workload.run_validated (Config.v ~sfence:false ()) w in
  let s = W.Workload.run_validated (Config.v ~sfence:true ()) w in
  Alcotest.(check bool)
    (Printf.sprintf "%s: scoped not slower than 2%% (T=%d S=%d)" name t.Machine.cycles
       s.Machine.cycles)
    true
    (float_of_int s.Machine.cycles <= 1.02 *. float_of_int t.Machine.cycles)

let test_dekker () = check_both "dekker" (fun () -> W.Dekker.make ~level ~attempts:12)

let test_wsq_class () =
  check_both "wsq/class" (fun () -> W.Wsq.make ~rounds:5 ~scope:`Class ~level ())

let test_wsq_set () =
  check_both "wsq/set" (fun () -> W.Wsq.make ~rounds:5 ~scope:`Set ~level ())

let test_wsq_small_threads () =
  check_both "wsq/3t" (fun () -> W.Wsq.make ~threads:3 ~rounds:5 ~scope:`Class ~level ())

let test_msn_class () =
  check_both "msn/class" (fun () -> W.Msn.make ~per_producer:8 ~scope:`Class ~level ())

let test_msn_set () =
  check_both "msn/set" (fun () -> W.Msn.make ~per_producer:8 ~scope:`Set ~level ())

let test_harris_class () =
  check_both "harris/class" (fun () -> W.Harris.make ~scope:`Class ~level ())

let test_harris_set () =
  check_both "harris/set" (fun () -> W.Harris.make ~scope:`Set ~level ())

let test_harris_more_keys () =
  check_both "harris/4keys" (fun () ->
      W.Harris.make ~keys_per_thread:4 ~scope:`Class ~level:small_level ())

let test_pst () = check_both "pst" (fun () -> W.Pst.make ~nodes:192 ~scope:`Class ())
let test_pst_set () = check_both "pst/set" (fun () -> W.Pst.make ~nodes:192 ~scope:`Set ())
let test_ptc () = check_both "ptc" (fun () -> W.Ptc.make ~nodes:96 ~scope:`Class ())
let test_barnes () = check_both "barnes" (fun () -> W.Barnes.make ~bodies:64 ())
let test_radiosity () = check_both "radiosity" (fun () -> W.Radiosity.make ~patches:48 ())

(* Validations across several graph seeds: the structures must hold
   for arbitrary (connected) inputs, not just the default seed. *)
let test_pst_seeds () =
  List.iter
    (fun seed ->
      ignore
        (W.Workload.run_validated (Config.v ~sfence:true ())
           (W.Pst.make ~nodes:128 ~seed ~scope:`Class ())))
    [ 1; 2; 3 ]

let test_ptc_seeds () =
  List.iter
    (fun seed ->
      ignore
        (W.Workload.run_validated (Config.v ~sfence:true ())
           (W.Ptc.make ~nodes:64 ~sources:2 ~seed ~scope:`Class ())))
    [ 4; 5; 6 ]

(* The lock-free structures must stay correct under perturbed machine
   parameters (different interleavings): sweep ROB sizes and memory
   latencies with validation on. *)
let test_wsq_param_sweep () =
  let w = W.Wsq.make ~rounds:4 ~scope:`Class ~level:small_level () in
  List.iter
    (fun config -> ignore (W.Workload.run_validated config w))
    [
      Config.v ~sfence:true ~rob_size:64 ();
      Config.v ~sfence:true ~rob_size:256 ();
      Config.v ~sfence:true ~mem_latency:100 ();
      Config.v ~sfence:false ~mem_latency:500 ();
    ]

let test_msn_param_sweep () =
  let w = W.Msn.make ~per_producer:6 ~scope:`Class ~level:small_level () in
  List.iter
    (fun config -> ignore (W.Workload.run_validated config w))
    [
      Config.v ~sfence:true ~rob_size:64 ();
      Config.v ~sfence:true ~mem_latency:150 ();
      Config.v ~sfence:true ~fsb_entries:2 ();
    ]

let test_harris_param_sweep () =
  let w = W.Harris.make ~keys_per_thread:3 ~scope:`Class ~level:small_level () in
  List.iter
    (fun config -> ignore (W.Workload.run_validated config w))
    [
      Config.v ~sfence:true ~rob_size:64 ();
      Config.v ~sfence:true ~fsb_entries:1 ();
      Config.v ~sfence:true ~mem_latency:450 ();
    ]

(* Graph generator properties. *)
let test_graph_connected () =
  let rng = Rng.create 99 in
  for _ = 1 to 10 do
    let nodes = 2 + Rng.int rng 200 in
    let g = W.Graph.make ~nodes ~degree:(2 + Rng.int rng 4) ~seed:(Rng.int rng 10000) in
    let reach = W.Graph.reachable_from g 0 in
    Alcotest.(check bool) "connected" true (Array.for_all Fun.id reach)
  done

let test_graph_csr_consistent () =
  let g = W.Graph.make ~nodes:50 ~degree:4 ~seed:7 in
  Alcotest.(check int) "offsets length" 51 (Array.length g.W.Graph.offsets);
  Alcotest.(check int) "edge count" g.W.Graph.offsets.(50) (Array.length g.W.Graph.edges);
  (* undirected: every edge appears in both adjacency lists *)
  for v = 0 to 49 do
    List.iter
      (fun u ->
        Alcotest.(check bool) "symmetric" true (List.mem v (W.Graph.neighbours g u)))
      (W.Graph.neighbours g v)
  done

let test_spanning_tree_checker_rejects () =
  let g = W.Graph.make ~nodes:10 ~degree:3 ~seed:1 in
  let bogus = Array.make 10 0 in
  bogus.(0) <- 0;
  (* a parent map where everyone claims node 0 as parent is only a tree
     if 0 neighbours everyone — with 10 nodes and degree 3 it is not *)
  Alcotest.(check bool) "bogus rejected" false
    (W.Graph.is_spanning_tree g ~parent:bogus ~root:0)

(* The nested-scope ablation workload and its FSS sensitivity. *)
let test_nested_scopes_validate () =
  let w = Fscope_experiments.Ablation.nested_scope_workload ~rounds:8 () in
  ignore (W.Workload.run_validated (Config.v ~sfence:true ()) w);
  ignore (W.Workload.run_validated (Config.v ~sfence:false ()) w)

let test_nested_scopes_fss_monotone () =
  (* A deeper FSS must not be slower than a unit stack on the deep
     nesting chain. *)
  let w = Fscope_experiments.Ablation.nested_scope_workload ~rounds:8 () in
  let cycles fss =
    let config =
      { Config.default with
        Config.scope = { Config.default.Config.scope with Fscope_core.Scope_unit.fss_entries = fss } }
    in
    (W.Workload.run_validated (Config.v ~base:config ~sfence:true ()) w).Machine.cycles
  in
  Alcotest.(check bool) "fss=8 <= fss=1" true (cycles 8 <= cycles 1)

let tests =
  [
    Alcotest.test_case "dekker validates (T and S)" `Quick test_dekker;
    Alcotest.test_case "wsq class scope" `Quick test_wsq_class;
    Alcotest.test_case "wsq set scope" `Quick test_wsq_set;
    Alcotest.test_case "wsq 3 threads" `Quick test_wsq_small_threads;
    Alcotest.test_case "msn class scope" `Quick test_msn_class;
    Alcotest.test_case "msn set scope" `Quick test_msn_set;
    Alcotest.test_case "harris class scope" `Quick test_harris_class;
    Alcotest.test_case "harris set scope" `Quick test_harris_set;
    Alcotest.test_case "harris more keys" `Quick test_harris_more_keys;
    Alcotest.test_case "pst validates" `Quick test_pst;
    Alcotest.test_case "pst set scope" `Quick test_pst_set;
    Alcotest.test_case "ptc validates" `Quick test_ptc;
    Alcotest.test_case "barnes validates" `Quick test_barnes;
    Alcotest.test_case "radiosity validates" `Quick test_radiosity;
    Alcotest.test_case "pst across seeds" `Slow test_pst_seeds;
    Alcotest.test_case "ptc across seeds" `Slow test_ptc_seeds;
    Alcotest.test_case "wsq parameter sweep" `Slow test_wsq_param_sweep;
    Alcotest.test_case "msn parameter sweep" `Slow test_msn_param_sweep;
    Alcotest.test_case "harris parameter sweep" `Slow test_harris_param_sweep;
    Alcotest.test_case "graphs connected" `Quick test_graph_connected;
    Alcotest.test_case "graph CSR consistent" `Quick test_graph_csr_consistent;
    Alcotest.test_case "tree checker rejects bogus" `Quick test_spanning_tree_checker_rejects;
    Alcotest.test_case "nested scopes validate" `Quick test_nested_scopes_validate;
    Alcotest.test_case "nested scopes FSS monotone" `Quick test_nested_scopes_fss_monotone;
  ]
