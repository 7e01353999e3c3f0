(* The Core's exact results, pinned to recorded values.

   The differential suite compares [Machine.run] with
   [Machine.run_reference], but both step the same [Core], so a change
   to the pipeline's semantics moves both sides together and passes
   unnoticed.  This pins what the Core itself produces: cycles,
   timeout, per-core committed counts and an MD5 over every core's CPI
   leaves plus final memory, for the paper's kernels and apps at small
   sizes under T and S, S with in-window speculation, and S on the
   ideal memory model.  The expected strings were recorded from the
   pipeline whose stages walked the whole ROB every cycle; the
   state-indexed ROB must land on exactly the same results. *)

module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Registry = Fscope_workloads.Registry
module Workload = Fscope_workloads.Workload

let summary (r : Machine.result) =
  let b = Buffer.create 4096 in
  let add v = Buffer.add_string b (string_of_int v ^ ",") in
  Array.iter (fun cpi -> Array.iter add (Fscope_obs.Cpi.to_array cpi)) r.Machine.core_cpi;
  Buffer.add_char b '|';
  Array.iter add r.Machine.mem;
  Printf.sprintf "cycles=%d timed_out=%b committed=%s digest=%s" r.Machine.cycles
    r.Machine.timed_out
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun (s : Fscope_cpu.Core.stats) -> string_of_int s.committed)
             r.Machine.core_stats)))
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let p = Registry.default_params

let workloads =
  [
    ("dekker", { p with attempts = 3 });
    ("wsq", { p with rounds = Some 1 });
    ("msn", { p with size = Some 2 });
    ("harris", { p with size = Some 1 });
    ("pst", { p with size = Some 32 });
    ("ptc", { p with size = Some 16 });
    ("barnes", { p with size = Some 8 });
    ("radiosity", { p with size = Some 8 });
    ("spin-barrier", { p with rounds = Some 2 });
  ]

let configs =
  [
    ("T", Config.v ~sfence:false ());
    ("S", Config.v ~sfence:true ());
    ("S+", Config.v ~sfence:true ~speculation:true ());
    ("S-ideal", Config.v ~sfence:true ~mem_model:Config.Ideal ());
  ]

let program name params =
  match Registry.find name with
  | Some spec -> (Workload.build spec params).Workload.program
  | None -> failwith (Registry.unknown_message name)

let expected =
  [
    ("dekker/T",
     "cycles=3896 timed_out=false committed=6265,7579 digest=bd9f984b97c1221928775343d3ad173d");
    ("dekker/S",
     "cycles=3386 timed_out=false committed=6265,7603 digest=99a83a8e5468693aececbc6b72be0d69");
    ("dekker/S+",
     "cycles=3096 timed_out=false committed=6265,7615 digest=03912c209a451ce232f5fac33e411be5");
    ("dekker/S-ideal",
     "cycles=2777 timed_out=false committed=6265,7615 digest=ce8a83e98be3877bd7ae83435054ba3c");
    ("wsq/T",
     "cycles=3605 timed_out=false committed=4786,6280,6280,6286,6280,6280,6280,6280 digest=571dc824bd435835377c0612dbfe2f74");
    ("wsq/S",
     "cycles=3779 timed_out=false committed=4760,8361,8371,8361,8371,8377,8371,8371 digest=b0e51bc180287cd6d734585efa4fd3a3");
    ("wsq/S+",
     "cycles=3466 timed_out=false committed=4773,6286,8355,8361,8355,8355,8355,8355 digest=a58a39abbf613eaad227573a5e81a141");
    ("wsq/S-ideal",
     "cycles=2380 timed_out=false committed=4786,6286,6280,6280,6280,6280,6280,6280 digest=a673dcc8f098d47e637a26e6a99ca2bc");
    ("msn/T",
     "cycles=3089 timed_out=false committed=4260,4285,4260,4299,4544,4476,4513,4529 digest=15cc6f2946404991cd9c8e248ece196e");
    ("msn/S",
     "cycles=2709 timed_out=false committed=4274,4285,4260,4260,4641,4638,4638,4569 digest=fd902b7a1e742dd02bf83760bb4cdefd");
    ("msn/S+",
     "cycles=2642 timed_out=false committed=4271,4296,4260,4317,4669,4833,4796,4706 digest=7022b394fa5a6875f7589b5709f0e95f");
    ("msn/S-ideal",
     "cycles=1808 timed_out=false committed=4260,4285,4331,4377,4569,4481,4546,4611 digest=9cfff8dff9ad200f1cfab8ab5cae590d");
    ("harris/T",
     "cycles=3787 timed_out=false committed=6546,6895,6604,6888,6807,7224,7263,7046 digest=476c79e4071ccb812fe5a72d7654a311");
    ("harris/S",
     "cycles=3577 timed_out=false committed=6546,6794,6604,6888,6775,7046,7167,7014 digest=0733428ba1d28acbda7d147964d75c56");
    ("harris/S+",
     "cycles=3642 timed_out=false committed=6546,6794,6604,6884,6775,6890,7163,7014 digest=bcd13e907657f3e993285e3aa61909f6");
    ("harris/S-ideal",
     "cycles=3223 timed_out=false committed=6532,6667,6838,7045,7288,7567,7882,8233 digest=05cea4ccfc843beeb80b988f14182e1b");
    ("pst/T",
     "cycles=5552 timed_out=false committed=1181,4247,4438,4421,3294,4418,2315,3306 digest=a23abe08ce5c0c65e4a991f18f5e14a7");
    ("pst/S",
     "cycles=5416 timed_out=false committed=2389,2742,2165,3973,3672,3838,3444,3965 digest=adf1a12e4a8e066abd011e41395e983f");
    ("pst/S+",
     "cycles=5127 timed_out=false committed=2070,6313,8530,7608,8820,7688,8348,5450 digest=23a2805a81e9145209e089b708b14881");
    ("pst/S-ideal",
     "cycles=797 timed_out=false committed=1237,1463,1331,1650,1458,1574,1429,1389 digest=5cbd3d4d5b5d7507e5c77253d9d20bbe");
    ("ptc/T",
     "cycles=4534 timed_out=false committed=2075,1389,981,3468,2656,3508,3280,2406 digest=249b4089f261811f9259b5ca6a05ab35");
    ("ptc/S",
     "cycles=4145 timed_out=false committed=1778,1856,1670,2863,2419,3317,2794,2423 digest=f0bb799cb673d0a7518dc4303e747158");
    ("ptc/S+",
     "cycles=3513 timed_out=false committed=1707,1200,1286,4288,5285,4887,4217,5006 digest=e84f65d08ce1ad70af430f72c22cb85f");
    ("ptc/S-ideal",
     "cycles=987 timed_out=false committed=1692,1622,1940,1755,1778,1971,1808,2038 digest=46c07eea5ee5fcd3dbc35ad477288dda");
    ("barnes/T",
     "cycles=1766 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=e5ea7bfeb87af88d4a5edd280b110e6b");
    ("barnes/S",
     "cycles=1432 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=027dbe82ef61790d75d523814c985b7e");
    ("barnes/S+",
     "cycles=1431 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=fc4004e1b76dc2c5bb18ec54f6839295");
    ("barnes/S-ideal",
     "cycles=836 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=3fd7b9a1cac57f09b0fa98ebc892ab24");
    ("radiosity/T",
     "cycles=2100 timed_out=false committed=2780,2780,2799,2818,2818,2837,2837,2799 digest=58c802ef26ae17e51398af96f5f1f0d6");
    ("radiosity/S",
     "cycles=1765 timed_out=false committed=2780,2780,2799,2818,2818,2837,2837,2799 digest=3c36c06e14b41ff4cb42bd7921f7ea20");
    ("radiosity/S+",
     "cycles=1736 timed_out=false committed=2780,2780,2799,2818,2818,2837,2837,2799 digest=2e65b10b28a78fd9974bad73a98f2f58");
    ("radiosity/S-ideal",
     "cycles=1139 timed_out=false committed=2780,2799,2818,2837,2856,2875,2894,2913 digest=515712705455364e6eb39386fadd6bc3");
    ("spin-barrier/T",
     "cycles=7393 timed_out=false committed=21751,17233,17383,18133 digest=01393a5ce48ff48340a87cdd709d0b2d");
    ("spin-barrier/S",
     "cycles=7393 timed_out=false committed=21751,17233,17383,18133 digest=e5a33bb06f7a80499a5d50ab08ab0495");
    ("spin-barrier/S+",
     "cycles=7392 timed_out=false committed=21751,17463,18303,18303 digest=80484777c93def92ffdb0953e47271d2");
    ("spin-barrier/S-ideal",
     "cycles=7306 timed_out=false committed=21751,29118,29118,29118 digest=bbd28be91fe5253c3c25afc2d5f4e74a");
  ]

let test_pinned () =
  List.iter
    (fun (name, params) ->
      let prog = program name params in
      List.iter
        (fun (label, config) ->
          let key = name ^ "/" ^ label in
          Alcotest.(check string) key (List.assoc key expected)
            (summary (Machine.run config prog)))
        configs)
    workloads

let tests =
  [ Alcotest.test_case "core results match recorded values" `Quick test_pinned ]
