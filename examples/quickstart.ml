(* Quickstart: the paper's Fig. 10 scenario, end to end.

   We hand-assemble a tiny program in which a long-latency store (St A)
   precedes a class scope containing a fast store (St X), a fence, and
   a load (Ld Y).  Run it twice — traditional fences vs S-Fence — and
   watch the scoped fence stop paying for the out-of-scope miss.

     dune exec examples/quickstart.exe *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Asm = Fscope_isa.Asm
module Program = Fscope_isa.Program
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine

let r = Reg.r

let program ~kind =
  let asm = Asm.create () in
  let emit = Asm.emit asm in
  emit (Instr.Li (r 1, 42));
  emit (Instr.Li (r 2, 0)) (* address of A *);
  emit (Instr.Li (r 3, 64)) (* address of X *);
  emit (Instr.Li (r 4, 128)) (* address of Y *);
  emit (Instr.Load { dst = r 6; base = r 3; off = 0; flagged = false })
  (* pre-warm X's line so St X completes quickly *);
  emit (Instr.Store { src = r 1; base = r 2; off = 0; flagged = false })
  (* St A: a cold miss, outside the scope *);
  emit (Instr.Fs_start 1) (* enter the class scope *);
  emit (Instr.Store { src = r 1; base = r 3; off = 0; flagged = false }) (* St X *);
  emit (Instr.Fence kind) (* the fence under test *);
  emit (Instr.Load { dst = r 5; base = r 4; off = 0; flagged = false }) (* Ld Y *);
  emit (Instr.Fs_end 1);
  emit (Instr.Store { src = r 5; base = r 3; off = 1; flagged = false });
  emit Instr.Halt;
  Program.make ~threads:[ Asm.finish asm ] ~mem_words:256 ()

let () =
  let traditional =
    Machine.run (Config.v ~sfence:false ())
      (program ~kind:Fscope_isa.Fence_kind.full)
  in
  let scoped =
    Machine.run (Config.v ~sfence:true ())
      (program ~kind:Fscope_isa.Fence_kind.class_scoped)
  in
  Printf.printf "Fig. 10 quickstart (one core, one scope, one fence)\n";
  Printf.printf "  traditional fence: %5d cycles (%d stalled at the fence)\n"
    traditional.Machine.cycles
    (Machine.fence_stall_cycles traditional);
  Printf.printf "  scoped fence:      %5d cycles (%d stalled at the fence)\n"
    scoped.Machine.cycles
    (Machine.fence_stall_cycles scoped);
  Printf.printf "  saved: %d cycles — the fence no longer waits for St A's miss\n"
    (traditional.Machine.cycles - scoped.Machine.cycles)
