(* Whole-machine tests: hand-assembled programs through the cycle-level
   simulator — functional correctness, memory-model litmus tests, and
   the paper's Fig. 10 timing scenario. *)

module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Asm = Fscope_isa.Asm
module Program = Fscope_isa.Program
module Fk = Fscope_isa.Fence_kind
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine

let r = Reg.r

(* A faster machine config for tests: same structure, smaller caches. *)
let test_config = Config.default

let run ?(config = test_config) program = Machine.run config program

let check_finished result = Alcotest.(check bool) "finished" false result.Machine.timed_out

let li d v = Instr.Li (r d, v)
let add d a b = Instr.Alu (Instr.Add, r d, r a, Instr.Reg (r b))
let addi d a v = Instr.Alu (Instr.Add, r d, r a, Instr.Imm v)
let ld ?(flagged = false) d base off = Instr.Load { dst = r d; base = r base; off; flagged }
let st ?(flagged = false) s base off = Instr.Store { src = r s; base = r base; off; flagged }

let test_single_thread_arith () =
  (* mem[0] := 2 + 3 * 4 *)
  let code =
    [| li 1 3; li 2 4; Instr.Alu (Instr.Mul, r 3, r 1, Instr.Reg (r 2));
       addi 4 3 2; li 5 0; st 4 5 0; Instr.Halt |]
  in
  let p = Program.make ~threads:[ code ] ~mem_words:8 () in
  let result = run p in
  check_finished result;
  Alcotest.(check int) "mem[0]" 14 result.Machine.mem.(0);
  Alcotest.(check int) "committed" 7 result.Machine.core_stats.(0).committed

let test_loop_sum () =
  (* mem[0] := sum 1..10, via a backward branch (exercises prediction
     and misprediction recovery). *)
  let asm = Asm.create () in
  let top = Asm.fresh_label asm in
  Asm.emit asm (li 1 0) (* sum *);
  Asm.emit asm (li 2 10) (* i *);
  Asm.place asm top;
  Asm.emit asm (add 1 1 2);
  Asm.emit asm (addi 2 2 (-1));
  Asm.branch asm Instr.Nez (r 2) top;
  Asm.emit asm (li 3 0);
  Asm.emit asm (st 1 3 0);
  Asm.emit asm Instr.Halt;
  let p = Program.make ~threads:[ Asm.finish asm ] ~mem_words:8 () in
  let result = run p in
  check_finished result;
  Alcotest.(check int) "sum" 55 result.Machine.mem.(0);
  Alcotest.(check bool) "at least one misprediction" true
    (result.Machine.core_stats.(0).mispredicts >= 1)

let test_store_load_forwarding () =
  (* A load right behind a store to the same address must see the
     store's value (via forwarding, long before the store drains). *)
  let code = [| li 1 99; li 2 0; st 1 2 0; ld 3 2 0; st 3 2 1; Instr.Halt |] in
  let p = Program.make ~threads:[ code ] ~mem_words:8 () in
  let result = run p in
  check_finished result;
  Alcotest.(check int) "forwarded value stored" 99 result.Machine.mem.(1)

let test_tid () =
  let thread tid_slot =
    [| Instr.Tid (r 1); li 2 tid_slot; st 1 2 0; Instr.Halt |]
  in
  let p = Program.make ~threads:[ thread 0; thread 1; thread 2 ] ~mem_words:8 () in
  let result = run p in
  check_finished result;
  Alcotest.(check (list int)) "tids" [ 0; 1; 2 ]
    [ result.Machine.mem.(0); result.Machine.mem.(1); result.Machine.mem.(2) ]

let test_cas_success_and_failure () =
  let code =
    [|
      li 1 0 (* addr base *);
      li 2 5 (* expected *);
      li 3 9 (* desired *);
      Instr.Cas { dst = r 4; base = r 1; off = 0; expected = r 2; desired = r 3; flagged = false };
      st 4 1 1 (* success flag -> mem[1] *);
      Instr.Cas { dst = r 5; base = r 1; off = 0; expected = r 2; desired = r 3; flagged = false };
      st 5 1 2 (* second must fail -> mem[2] *);
      Instr.Halt;
    |]
  in
  let p = Program.make ~threads:[ code ] ~mem_words:8 ~init:[ (0, 5) ] () in
  let result = run p in
  check_finished result;
  Alcotest.(check int) "value swapped" 9 result.Machine.mem.(0);
  Alcotest.(check int) "first cas ok" 1 result.Machine.mem.(1);
  Alcotest.(check int) "second cas fails" 0 result.Machine.mem.(2)

let test_cas_atomic_increment () =
  (* Two threads each perform 20 CAS-loop increments: counter must be 40. *)
  let thread () =
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm in
    let retry = Asm.fresh_label asm in
    Asm.emit asm (li 1 0) (* counter addr *);
    Asm.emit asm (li 2 20) (* iterations *);
    Asm.place asm loop;
    Asm.place asm retry;
    Asm.emit asm (ld 3 1 0) (* old *);
    Asm.emit asm (addi 4 3 1) (* new *);
    Asm.emit asm
      (Instr.Cas { dst = r 5; base = r 1; off = 0; expected = r 3; desired = r 4; flagged = false });
    Asm.branch asm Instr.Eqz (r 5) retry;
    Asm.emit asm (addi 2 2 (-1));
    Asm.branch asm Instr.Nez (r 2) loop;
    Asm.emit asm Instr.Halt;
    Asm.finish asm
  in
  let p = Program.make ~threads:[ thread (); thread () ] ~mem_words:8 () in
  let result = run p in
  check_finished result;
  Alcotest.(check int) "atomic increments" 40 result.Machine.mem.(0)

(* ------------------------------------------------------------------ *)
(* Litmus: store buffering (Dekker).  W->R reordering is allowed      *)
(* without fences and forbidden with them.                            *)
(* ------------------------------------------------------------------ *)

(* flag0 at 0, flag1 at 8 (different lines), results at 16, 17.
   Each thread pre-warms its own flag line, waits out a symmetric
   delay loop until the pre-warm has committed, then races:
   store mine (visible ~commit+12), load theirs (samples ~issue+14,
   just before the remote store's value lands).  The post-loop
   addresses are derived from the loop counter so that wrong-path
   loads after the loop branch hit out-of-bounds addresses and cannot
   pollute the caches. *)
let sb_litmus ~fence ~flagged =
  let thread mine theirs result_slot =
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm in
    Asm.emit asm (li 2 mine);
    Asm.emit asm (ld 6 2 0) (* pre-warm my flag line *);
    Asm.emit asm (li 7 400);
    Asm.place asm loop;
    Asm.emit asm (addi 7 7 (-1));
    Asm.branch asm Instr.Nez (r 7) loop;
    Asm.emit asm (addi 3 7 theirs) (* = theirs; garbage (OOB) on the wrong path *);
    Asm.emit asm (li 1 1);
    Asm.emit asm (st ~flagged 1 2 0) (* my flag := 1 *);
    (match fence with Some kind -> Asm.emit asm (Instr.Fence kind) | None -> ());
    Asm.emit asm (ld ~flagged 4 3 0) (* read their flag *);
    Asm.emit asm (li 5 result_slot);
    Asm.emit asm (st 4 5 0);
    Asm.emit asm Instr.Halt;
    Asm.finish asm
  in
  Program.make ~threads:[ thread 0 8 16; thread 8 0 17 ] ~mem_words:32 ()

let test_sb_litmus_relaxed () =
  (* Without fences both loads may bypass the pending stores: the
     forbidden-under-SC outcome 0/0 appears. *)
  let result = run (sb_litmus ~fence:None ~flagged:false) in
  check_finished result;
  Alcotest.(check (pair int int)) "both read 0 (W->R reordered)" (0, 0)
    (result.Machine.mem.(16), result.Machine.mem.(17))

let test_sb_litmus_full_fence () =
  let result = run (sb_litmus ~fence:(Some Fk.full) ~flagged:false) in
  check_finished result;
  Alcotest.(check bool) "SC outcome restored" true
    (result.Machine.mem.(16) = 1 || result.Machine.mem.(17) = 1)

let test_sb_litmus_set_fence () =
  (* S-FENCE[set,{flag0,flag1}]: accesses flagged, fence set-scoped —
     must restore the SC outcome just like a full fence. *)
  let result = run (sb_litmus ~fence:(Some Fk.set_scoped) ~flagged:true) in
  check_finished result;
  Alcotest.(check bool) "set-scoped fence orders the flags" true
    (result.Machine.mem.(16) = 1 || result.Machine.mem.(17) = 1)

(* ------------------------------------------------------------------ *)
(* Litmus: message passing.  Needs a W->W fence in the producer and an
   R->R fence in the consumer.                                         *)
(* ------------------------------------------------------------------ *)

let mp_litmus ~fenced =
  (* data at 0, flag at 8; consumer results at 16 (flag) and 17 (data).
     The producer pre-warms the flag line so its flag store completes
     (~ cycle 330) long before the cold-miss data store (~ cycle 630):
     the W->W window.  The consumer delays ~400 cycles, then reads
     flag and data back to back; without fences both reads sample
     inside the window (flag=1, data=0). *)
  let producer =
    let asm = Asm.create () in
    Asm.emit asm (li 2 8);
    Asm.emit asm (ld 6 2 0) (* pre-warm flag line *);
    Asm.emit asm (li 1 1);
    Asm.emit asm (li 3 0);
    Asm.emit asm (st 1 3 0) (* data := 1 (cold miss) *);
    if fenced then Asm.emit asm (Instr.Fence Fk.full);
    Asm.emit asm (st 1 2 0) (* flag := 1 *);
    Asm.emit asm Instr.Halt;
    Asm.finish asm
  in
  let consumer =
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm in
    Asm.emit asm (li 7 400);
    Asm.place asm loop;
    Asm.emit asm (addi 7 7 (-1));
    Asm.branch asm Instr.Nez (r 7) loop;
    (* Addresses depend on the loop counter: correct-path r7 = 0, and
       wrong-path instances read out of bounds instead of polluting
       the data/flag lines before the race. *)
    Asm.emit asm (addi 2 7 8);
    Asm.emit asm (addi 3 7 0);
    Asm.emit asm (ld 4 2 0) (* read flag *);
    if fenced then Asm.emit asm (Instr.Fence Fk.full);
    Asm.emit asm (ld 5 3 0) (* read data *);
    Asm.emit asm (li 6 16);
    Asm.emit asm (st 4 6 0);
    Asm.emit asm (st 5 6 1);
    Asm.emit asm Instr.Halt;
    Asm.finish asm
  in
  Program.make ~threads:[ producer; consumer ] ~mem_words:32 ()

let test_mp_litmus_fenced () =
  let result = run (mp_litmus ~fenced:true) in
  check_finished result;
  let flag = result.Machine.mem.(16) and data = result.Machine.mem.(17) in
  Alcotest.(check bool) "flag=1 implies data=1" true (flag = 0 || data = 1)

let test_mp_litmus_relaxed_is_possible () =
  (* Not a requirement of RMO, but our machine's timing does exhibit
     the flag=1/data=0 outcome without fences; this pins the
     relaxation the fences exist to forbid. *)
  let result = run (mp_litmus ~fenced:false) in
  check_finished result;
  let flag = result.Machine.mem.(16) and data = result.Machine.mem.(17) in
  Alcotest.(check (pair int int)) "relaxed outcome observed" (1, 0) (flag, data)

(* ------------------------------------------------------------------ *)
(* Litmus: IRIW.  Stores become visible to all cores at one completion
   point in this machine (multi-copy atomic, like MIPS/x86 and unlike
   POWER), so with fenced readers the two observers can never disagree
   on the order of the two independent writes.  This test pins that
   model property; DESIGN.md documents it as a fidelity note.          *)
(* ------------------------------------------------------------------ *)

let iriw_program () =
  (* x at 0, y at 8; observers record at 16,17 and 24,25. *)
  let writer addr =
    let asm = Asm.create () in
    Asm.emit asm (li 1 1);
    Asm.emit asm (li 2 addr);
    Asm.emit asm (st 1 2 0);
    Asm.emit asm Instr.Halt;
    Asm.finish asm
  in
  let reader ~first ~second ~slot =
    let asm = Asm.create () in
    let loop = Asm.fresh_label asm in
    Asm.emit asm (li 7 200);
    Asm.place asm loop;
    Asm.emit asm (addi 7 7 (-1));
    Asm.branch asm Instr.Nez (r 7) loop;
    Asm.emit asm (addi 2 7 first);
    Asm.emit asm (addi 3 7 second);
    Asm.emit asm (ld 4 2 0);
    Asm.emit asm (Instr.Fence Fk.full);
    Asm.emit asm (ld 5 3 0);
    Asm.emit asm (li 6 slot);
    Asm.emit asm (st 4 6 0);
    Asm.emit asm (st 5 6 1);
    Asm.emit asm Instr.Halt;
    Asm.finish asm
  in
  Program.make
    ~threads:
      [ writer 0; writer 8; reader ~first:0 ~second:8 ~slot:16;
        reader ~first:8 ~second:0 ~slot:24 ]
    ~mem_words:32 ()

let test_iriw_multi_copy_atomic () =
  let result = run (iriw_program ()) in
  check_finished result;
  let m = result.Machine.mem in
  (* Observer A saw x then y; observer B saw y then x.  The forbidden
     IRIW outcome is A: x=1,y=0 and B: y=1,x=0 simultaneously. *)
  let a_x, a_y = (m.(16), m.(17)) in
  let b_y, b_x = (m.(24), m.(25)) in
  Alcotest.(check bool)
    (Printf.sprintf "no IRIW disagreement (A: x=%d y=%d, B: y=%d x=%d)" a_x a_y b_y b_x)
    false
    (a_x = 1 && a_y = 0 && b_y = 1 && b_x = 0)

(* ------------------------------------------------------------------ *)
(* The Fig. 10 scenario: a class-scoped fence lets the out-of-scope
   long-latency store drain in the background.                         *)
(* ------------------------------------------------------------------ *)

let fig10_program ~kind =
  (* St A (cold miss, out of scope); then inside a class scope:
     St X; FENCE; Ld Y; then work after.  A = 0, X = 64, Y = 128. *)
  let asm = Asm.create () in
  Asm.emit asm (li 1 1);
  Asm.emit asm (li 2 0) (* A *);
  Asm.emit asm (li 3 64) (* X *);
  Asm.emit asm (li 4 128) (* Y *);
  Asm.emit asm (ld 6 3 0) (* pre-warm X's line so St X completes fast *);
  Asm.emit asm (st 1 2 0) (* St A: cold miss *);
  Asm.emit asm (Instr.Fs_start 1);
  Asm.emit asm (st 1 3 0) (* St X: in scope, fast *);
  Asm.emit asm (Instr.Fence kind);
  Asm.emit asm (ld 5 4 0) (* Ld Y *);
  Asm.emit asm (Instr.Fs_end 1);
  Asm.emit asm (st 5 3 1);
  Asm.emit asm Instr.Halt;
  Program.make ~threads:[ Asm.finish asm ] ~mem_words:256 ()

let test_fig10_scoped_faster () =
  let t = Machine.run (Config.traditional test_config) (fig10_program ~kind:Fk.full) in
  let s = Machine.run (Config.scoped test_config) (fig10_program ~kind:Fk.class_scoped) in
  check_finished t;
  check_finished s;
  Alcotest.(check bool)
    (Printf.sprintf "scoped (%d) beats traditional (%d)" s.Machine.cycles t.Machine.cycles)
    true
    (s.Machine.cycles < t.Machine.cycles);
  Alcotest.(check bool) "scoped saves a memory round trip" true
    (t.Machine.cycles - s.Machine.cycles > 100)

let test_fig10_same_result () =
  let t = Machine.run (Config.traditional test_config) (fig10_program ~kind:Fk.full) in
  let s = Machine.run (Config.scoped test_config) (fig10_program ~kind:Fk.class_scoped) in
  Alcotest.(check int) "functional result unchanged" t.Machine.mem.(65) s.Machine.mem.(65)

let test_fence_stall_attribution () =
  (* The traditional run of Fig. 10 must attribute stall cycles to the
     fence; the scoped run should attribute far fewer. *)
  let t = Machine.run (Config.traditional test_config) (fig10_program ~kind:Fk.full) in
  let s = Machine.run (Config.scoped test_config) (fig10_program ~kind:Fk.class_scoped) in
  let t_stalls = Machine.fence_stall_cycles t in
  let s_stalls = Machine.fence_stall_cycles s in
  Alcotest.(check bool)
    (Printf.sprintf "stalls drop (T=%d S=%d)" t_stalls s_stalls)
    true (s_stalls < t_stalls)

let test_in_window_speculation_helps_traditional () =
  let t = Machine.run (Config.traditional test_config) (fig10_program ~kind:Fk.full) in
  let t_plus =
    Machine.run
      (Config.v ~base:(Config.traditional test_config) ~speculation:true ())
      (fig10_program ~kind:Fk.full)
  in
  check_finished t_plus;
  Alcotest.(check bool)
    (Printf.sprintf "T+ (%d) <= T (%d)" t_plus.Machine.cycles t.Machine.cycles)
    true
    (t_plus.Machine.cycles <= t.Machine.cycles)

let tests =
  [
    Alcotest.test_case "single thread arithmetic" `Quick test_single_thread_arith;
    Alcotest.test_case "loop sum with branches" `Quick test_loop_sum;
    Alcotest.test_case "store-to-load forwarding" `Quick test_store_load_forwarding;
    Alcotest.test_case "tid instruction" `Quick test_tid;
    Alcotest.test_case "cas success/failure" `Quick test_cas_success_and_failure;
    Alcotest.test_case "cas atomic increment" `Quick test_cas_atomic_increment;
    Alcotest.test_case "SB litmus: relaxed without fence" `Quick test_sb_litmus_relaxed;
    Alcotest.test_case "SB litmus: full fence" `Quick test_sb_litmus_full_fence;
    Alcotest.test_case "SB litmus: set-scoped fence" `Quick test_sb_litmus_set_fence;
    Alcotest.test_case "MP litmus: fenced" `Quick test_mp_litmus_fenced;
    Alcotest.test_case "MP litmus: relaxed observable" `Quick
      test_mp_litmus_relaxed_is_possible;
    Alcotest.test_case "IRIW: multi-copy atomic" `Quick test_iriw_multi_copy_atomic;
    Alcotest.test_case "Fig10: scoped fence faster" `Quick test_fig10_scoped_faster;
    Alcotest.test_case "Fig10: same functional result" `Quick test_fig10_same_result;
    Alcotest.test_case "fence stall attribution" `Quick test_fence_stall_attribution;
    Alcotest.test_case "in-window speculation helps" `Quick
      test_in_window_speculation_helps_traditional;
  ]
