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
   state-indexed ROB must land on exactly the same results.  The
   digests were re-derived when the CPI table lost its four
   never-charged fence leaves: the pipeline just before that change,
   made to assert that those leaves were 0 and to hash only the other
   11, produced the strings below with unchanged cycles and committed
   counts. *)

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
     "cycles=3896 timed_out=false committed=6265,7579 digest=fb1270fc90b13c7ca0ea75e3d8234c7e");
    ("dekker/S",
     "cycles=3386 timed_out=false committed=6265,7603 digest=a740fccd2c60f7250ef182779fffc42e");
    ("dekker/S+",
     "cycles=3096 timed_out=false committed=6265,7615 digest=1010a8e8da1ef5084d20f591220aafe9");
    ("dekker/S-ideal",
     "cycles=2777 timed_out=false committed=6265,7615 digest=da9ff1dd9466556172cb9f1a672613b0");
    ("wsq/T",
     "cycles=3605 timed_out=false committed=4786,6280,6280,6286,6280,6280,6280,6280 digest=6f75c6febe961b15f0ab7a517abb9e83");
    ("wsq/S",
     "cycles=3779 timed_out=false committed=4760,8361,8371,8361,8371,8377,8371,8371 digest=f749168054048664fd4a8ce2d35256be");
    ("wsq/S+",
     "cycles=3466 timed_out=false committed=4773,6286,8355,8361,8355,8355,8355,8355 digest=d092cfb522f23ace26602f2b40c643b6");
    ("wsq/S-ideal",
     "cycles=2380 timed_out=false committed=4786,6286,6280,6280,6280,6280,6280,6280 digest=ae07280d0c4641a92ecf59f91d08627b");
    ("msn/T",
     "cycles=3089 timed_out=false committed=4260,4285,4260,4299,4544,4476,4513,4529 digest=375b2fb7f3eb7faea1d2dbd45b0c801e");
    ("msn/S",
     "cycles=2709 timed_out=false committed=4274,4285,4260,4260,4641,4638,4638,4569 digest=2fe1e28147193f034d15fe737511aec0");
    ("msn/S+",
     "cycles=2642 timed_out=false committed=4271,4296,4260,4317,4669,4833,4796,4706 digest=805df897a0d0cd15e6e4d35529853cad");
    ("msn/S-ideal",
     "cycles=1808 timed_out=false committed=4260,4285,4331,4377,4569,4481,4546,4611 digest=f129f23b888ba63461456afa950406a3");
    ("harris/T",
     "cycles=3787 timed_out=false committed=6546,6895,6604,6888,6807,7224,7263,7046 digest=9f26926127df49f4847a3130ebc4eedf");
    ("harris/S",
     "cycles=3577 timed_out=false committed=6546,6794,6604,6888,6775,7046,7167,7014 digest=ccaf9faf652f980dc77db75dd931a737");
    ("harris/S+",
     "cycles=3642 timed_out=false committed=6546,6794,6604,6884,6775,6890,7163,7014 digest=31fee20d40e1bc97405c8b5b0aa2b699");
    ("harris/S-ideal",
     "cycles=3223 timed_out=false committed=6532,6667,6838,7045,7288,7567,7882,8233 digest=2ecc16c1361854d9471a1d6134188b9b");
    ("pst/T",
     "cycles=5552 timed_out=false committed=1181,4247,4438,4421,3294,4418,2315,3306 digest=3503513fc804e4e99536bcbff1197105");
    ("pst/S",
     "cycles=5416 timed_out=false committed=2389,2742,2165,3973,3672,3838,3444,3965 digest=4014e9f2a529ed36fe62b2a58a04081e");
    ("pst/S+",
     "cycles=5127 timed_out=false committed=2070,6313,8530,7608,8820,7688,8348,5450 digest=6526287ff6169f625625318e9d31eb81");
    ("pst/S-ideal",
     "cycles=797 timed_out=false committed=1237,1463,1331,1650,1458,1574,1429,1389 digest=0bcc90a2512ba37562a6c5b2821bacc3");
    ("ptc/T",
     "cycles=4534 timed_out=false committed=2075,1389,981,3468,2656,3508,3280,2406 digest=9362843f64928fbf40fefbf9a13ecccd");
    ("ptc/S",
     "cycles=4145 timed_out=false committed=1778,1856,1670,2863,2419,3317,2794,2423 digest=0d901197201f3521cbcc3329b438e6fb");
    ("ptc/S+",
     "cycles=3513 timed_out=false committed=1707,1200,1286,4288,5285,4887,4217,5006 digest=07684fdd96929094dec7a57a9ef25438");
    ("ptc/S-ideal",
     "cycles=987 timed_out=false committed=1692,1622,1940,1755,1778,1971,1808,2038 digest=4852ce6ed60c264eccc5d2ff52b30463");
    ("barnes/T",
     "cycles=1766 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=4ff83d5f9e6becdcc1966e0c0ec194ac");
    ("barnes/S",
     "cycles=1432 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=2202e4b224ae06cbbab92a4c25c9bb15");
    ("barnes/S+",
     "cycles=1431 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=6e68d31c248db1a89a32fcb23347507f");
    ("barnes/S-ideal",
     "cycles=836 timed_out=false committed=2252,2252,2252,2252,2252,2252,2252,2252 digest=c47d4941e190b1eda8b2f98fa7460915");
    ("radiosity/T",
     "cycles=2100 timed_out=false committed=2780,2780,2799,2818,2818,2837,2837,2799 digest=7d675e6d78b7a9152e6d298960ff8332");
    ("radiosity/S",
     "cycles=1765 timed_out=false committed=2780,2780,2799,2818,2818,2837,2837,2799 digest=d3e024181e8d455cfb378b6385c691be");
    ("radiosity/S+",
     "cycles=1736 timed_out=false committed=2780,2780,2799,2818,2818,2837,2837,2799 digest=9e5e162ab098770e8436cacedf7b9db8");
    ("radiosity/S-ideal",
     "cycles=1139 timed_out=false committed=2780,2799,2818,2837,2856,2875,2894,2913 digest=d1acf8dff0a76824f7b4a1a812bc9831");
    ("spin-barrier/T",
     "cycles=7393 timed_out=false committed=21751,17233,17383,18133 digest=7c410677c407803fab8f04784eb8ec55");
    ("spin-barrier/S",
     "cycles=7393 timed_out=false committed=21751,17233,17383,18133 digest=fd058b4a748ad487f81601ce62452a77");
    ("spin-barrier/S+",
     "cycles=7392 timed_out=false committed=21751,17463,18303,18303 digest=9e98a83ad226f863a74db55c20563562");
    ("spin-barrier/S-ideal",
     "cycles=7306 timed_out=false committed=21751,29118,29118,29118 digest=3360ba076c3b4c8acb7160c60ef3fdad");
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
