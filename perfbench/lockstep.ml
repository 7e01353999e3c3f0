(* The benchmark's own copy of the naive three-phase cycle loop
   (every core steps every cycle: write completions, then read
   completions, then the pipeline), driven through the public [Core]
   and [Mem_port] interfaces over a [Hierarchy].  It splits host time
   between the core stages and the memory system from outside the
   library: one clock read per phase per cycle, and one pair around
   every cache-hierarchy access.

   The split is only meaningful while this copy equals
   [Machine.run_reference] bit for bit, so [run] returns a digest the
   caller compares against the reference before it reports anything. *)

module Core = Fscope_cpu.Core
module Mem_port = Fscope_cpu.Mem_port
module Hierarchy = Fscope_mem.Hierarchy
module Program = Fscope_isa.Program
module Config = Fscope_machine.Config

type acc = {
  mutable writes_ns : int;  (** phase 1, memory time excluded *)
  mutable reads_ns : int;  (** phase 2, memory time excluded *)
  mutable pipeline_ns : int;  (** phase 3, memory time excluded *)
  mutable mem_ns : int;  (** inside [Hierarchy.access_classified] *)
  mutable accesses : int;
  mutable core_cycles : int;
  mutable steps : int;  (** sub-step calls *)
  mutable progress_steps : int;  (** sub-steps that changed state *)
}

let acc () =
  {
    writes_ns = 0;
    reads_ns = 0;
    pipeline_ns = 0;
    mem_ns = 0;
    accesses = 0;
    core_cycles = 0;
    steps = 0;
    progress_steps = 0;
  }

let add_into dst src =
  dst.writes_ns <- dst.writes_ns + src.writes_ns;
  dst.reads_ns <- dst.reads_ns + src.reads_ns;
  dst.pipeline_ns <- dst.pipeline_ns + src.pipeline_ns;
  dst.mem_ns <- dst.mem_ns + src.mem_ns;
  dst.accesses <- dst.accesses + src.accesses;
  dst.core_cycles <- dst.core_cycles + src.core_cycles;
  dst.steps <- dst.steps + src.steps;
  dst.progress_steps <- dst.progress_steps + src.progress_steps

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let hier_kind = function
  | Mem_port.Read -> Hierarchy.Read
  | Mem_port.Write -> Hierarchy.Write
  | Mem_port.Rmw -> Hierarchy.Rmw

type outcome = {
  digest : string;  (** {!Digest_of.make} of the finished machine *)
  cache : Hierarchy.stats;
  acc : acc;
}

(* Runs [program] to completion (or [max_cycles]) under [config], which
   must select the cache-hierarchy memory model. *)
let run (config : Config.t) program =
  if config.Config.mem_model <> Config.Hierarchy then
    invalid_arg "Lockstep.run: the split needs the cache-hierarchy model";
  let a = acc () in
  let n = Program.thread_count program in
  let mem = Program.initial_memory program in
  let hierarchy = Hierarchy.create ~cores:n config.Config.mem in
  let issue ~core kind ~addr ~now =
    let t0 = now_ns () in
    let latency, level = Hierarchy.access_classified hierarchy ~core (hier_kind kind) ~addr in
    a.mem_ns <- a.mem_ns + (now_ns () - t0);
    a.accesses <- a.accesses + 1;
    (now + latency, level)
  in
  let port =
    Mem_port.make ~size:(Array.length mem) ~issue
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value -> mem.(addr) <- value)
  in
  let cores =
    Array.init n (fun id ->
        Core.create ~id ~code:program.Program.threads.(id) ~port
          ~scope_config:config.Config.scope ~exec_config:config.Config.exec ())
  in
  let phase step cycle =
    let mem0 = a.mem_ns in
    let t0 = now_ns () in
    Array.iter
      (fun core ->
        a.steps <- a.steps + 1;
        if step core ~cycle then a.progress_steps <- a.progress_steps + 1)
      cores;
    now_ns () - t0 - (a.mem_ns - mem0)
  in
  let all_drained () = Array.for_all Core.drained cores in
  let cycle = ref 0 in
  while (not (all_drained ())) && !cycle < config.Config.max_cycles do
    let c = !cycle in
    a.writes_ns <- a.writes_ns + phase Core.step_complete_writes c;
    a.reads_ns <- a.reads_ns + phase Core.step_complete_reads c;
    a.pipeline_ns <- a.pipeline_ns + phase Core.step_pipeline c;
    a.core_cycles <- a.core_cycles + n;
    incr cycle
  done;
  let digest =
    Digest_of.make ~cycles:!cycle ~timed_out:(not (all_drained ()))
      ~stats:(Array.map Core.stats cores) ~cpi:(Array.map Core.cpi cores) ~mem
  in
  { digest; cache = Hierarchy.stats hierarchy; acc = a }
