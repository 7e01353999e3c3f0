module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module Workload = Fscope_workloads.Workload

type measurement = {
  cycles : int;
  fence_stall_fraction : float;
  fence_stalls : int;
  active_cycles : int;
  avg_rob_occupancy : float;
}

(* Registry lookup shared by the experiment tables, the CLI and the
   bench harness: find + build, with the registry's uniform
   unknown-workload failure text. *)
let workload ?(params = Fscope_workloads.Registry.default_params) name =
  match Fscope_workloads.Registry.find name with
  | Some spec -> Workload.build spec params
  | None -> failwith (Fscope_workloads.Registry.unknown_message name)

let t_config c = Config.v ~base:c ~sfence:false ()
let s_config c = Config.v ~base:c ~sfence:true ()
let t_plus c = Config.v ~base:c ~sfence:false ~speculation:true ()
let s_plus c = Config.v ~base:c ~sfence:true ~speculation:true ()
let nf_config c = Config.v ~base:c ~sfence:false ~nop_fences:true ()
let variants = [ ("T", t_config); ("S", s_config); ("T+", t_plus); ("S+", s_plus) ]

let sampled_config ?(sampling = Config.sampling_default) c =
  Config.v ~base:c ~sampling:(Some sampling) ()

let measure (config : Config.t) workload =
  let result =
    if config.Config.exec.Fscope_cpu.Exec_config.in_window_speculation then
      Workload.run config workload
    else Workload.run_validated config workload
  in
  {
    cycles = result.Machine.cycles;
    fence_stall_fraction = Machine.fence_stall_fraction result;
    fence_stalls = Machine.fence_stall_cycles result;
    active_cycles = Machine.total_active_cycles result;
    avg_rob_occupancy = Machine.avg_rob_occupancy result;
  }

let speedup ~baseline m = float_of_int baseline.cycles /. float_of_int m.cycles

(* ------------------------------------------------------------------ *)
(* Domain-parallel point runner.

   Every experiment point is an independent (config, workload) pair: a
   simulation run shares nothing mutable with any other run (the
   machine builds fresh memory, caches and cores per run, and
   workloads / configs are read-only descriptions), so points can fan
   out across OCaml 5 domains freely.  Results come back in input
   order regardless of completion order, and each run itself is
   deterministic, so the tables rendered from a parallel sweep are
   byte-identical to a sequential one. *)

let jobs_ref = ref 1

let set_jobs n =
  if n < 1 then invalid_arg "Exp_run.set_jobs: job count must be positive";
  jobs_ref := n

let jobs () = !jobs_ref

let parmap ~jobs f (inputs : _ array) =
  let n = Array.length inputs in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  (* Each slot has exactly one writer (the domain that claimed its
     index from [next]), so plain stores into [out] are race-free. *)
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r =
          try Ok (f inputs.(i))
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        out.(i) <- Some r;
        loop ()
      end
    in
    loop ()
  in
  let helpers = Array.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join helpers;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    out

type spec = {
  config : Config.t;
  workload : Workload.t;
}

let measure_all specs =
  let j = jobs () in
  if j <= 1 then List.map (fun s -> measure s.config s.workload) specs
  else
    Array.to_list
      (parmap ~jobs:j (fun s -> measure s.config s.workload) (Array.of_list specs))
