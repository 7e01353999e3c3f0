module Reg = Fscope_isa.Reg
module Instr = Fscope_isa.Instr
module Program = Fscope_isa.Program
module Asm = Fscope_isa.Asm
module Layout = Fscope_isa.Layout

let r = Reg.r

let test_reg_bounds () =
  Alcotest.check_raises "r 32 rejected" (Invalid_argument "Reg.r: 32 out of range")
    (fun () -> ignore (r 32));
  Alcotest.(check int) "index" 5 (Reg.index (r 5));
  Alcotest.(check bool) "zero" true (Reg.equal Reg.zero (r 0))

let test_instr_classify () =
  let load = Instr.Load { dst = r 1; base = r 2; off = 0; flagged = false } in
  let store = Instr.Store { src = r 1; base = r 2; off = 0; flagged = true } in
  Alcotest.(check bool) "load is memory" true (Instr.is_memory load);
  Alcotest.(check bool) "store is store-like" true (Instr.is_store_like store);
  Alcotest.(check bool) "load is not store-like" false (Instr.is_store_like load);
  Alcotest.(check bool) "fence is not memory" false (Instr.is_memory (Instr.Fence Fscope_isa.Fence_kind.full))

let test_instr_regs () =
  let cas =
    Instr.Cas { dst = r 1; base = r 2; off = 4; expected = r 3; desired = r 4; flagged = false }
  in
  Alcotest.(check int) "cas writes dst" 1 (Instr.dst_index cas);
  Alcotest.(check (list int)) "cas reads" [ 2; 3; 4 ]
    (List.map Reg.index (Instr.reads_regs cas));
  (* writes to r0 are discarded *)
  Alcotest.(check int) "write to r0 hidden" (-1) (Instr.dst_index (Instr.Li (Reg.zero, 3)))

let test_asm_labels () =
  let asm = Asm.create () in
  let l_end = Asm.fresh_label asm in
  Asm.emit asm (Instr.Li (r 1, 5));
  Asm.branch asm Instr.Eqz (r 1) l_end;
  Asm.emit asm (Instr.Li (r 2, 6));
  Asm.place asm l_end;
  Asm.emit asm Instr.Halt;
  let code = Asm.finish asm in
  Alcotest.(check int) "length" 4 (Array.length code);
  match code.(1) with
  | Instr.Branch { target; _ } -> Alcotest.(check int) "target" 3 target
  | _ -> Alcotest.fail "expected branch"

let test_asm_unplaced_label () =
  let asm = Asm.create () in
  let l = Asm.fresh_label asm in
  Asm.jump asm l;
  Alcotest.check_raises "unplaced" (Invalid_argument "Asm.finish: unplaced label")
    (fun () -> ignore (Asm.finish asm))

let test_asm_backward_label () =
  let asm = Asm.create () in
  let l_top = Asm.fresh_label asm in
  Asm.place asm l_top;
  Asm.emit asm Instr.Nop;
  Asm.jump asm l_top;
  let code = Asm.finish asm in
  match code.(1) with
  | Instr.Jump 0 -> ()
  | _ -> Alcotest.fail "expected jump to 0"

let test_layout_alloc () =
  let l = Layout.create ~line_words:8 () in
  let a = Layout.alloc l "a" 3 in
  let b = Layout.alloc_aligned l "b" 5 in
  let c = Layout.alloc l "c" 1 in
  Alcotest.(check int) "a at 0" 0 a;
  Alcotest.(check int) "b aligned" 8 b;
  Alcotest.(check int) "c after padded b" 16 c;
  Alcotest.(check int) "size" 17 (Layout.size l);
  Alcotest.(check int) "address_of" 8 (Layout.address_of l "b")

let test_layout_duplicate () =
  let l = Layout.create () in
  ignore (Layout.alloc l "x" 1);
  Alcotest.check_raises "dup" (Invalid_argument "Layout.alloc: duplicate symbol x")
    (fun () -> ignore (Layout.alloc l "x" 1))

let test_layout_init () =
  let l = Layout.create () in
  let base = Layout.alloc l "arr" 4 in
  Layout.init_array l base [| 9; 8; 7; 6 |];
  Alcotest.(check int) "four initials" 4 (List.length (Layout.initials l));
  Alcotest.check_raises "oob init" (Invalid_argument "Layout.init: address 99 outside allocations")
    (fun () -> Layout.init l 99 0)

let test_program_validation () =
  let bad_branch =
    [| Instr.Branch { cond = Instr.Eqz; src = r 1; target = 9 }; Instr.Halt |]
  in
  Alcotest.check_raises "branch out of range"
    (Invalid_argument "Program: thread 0 pc 0 branches to 9, out of range") (fun () ->
      ignore (Program.make ~threads:[ bad_branch ] ~mem_words:8 ()));
  let p =
    Program.make
      ~threads:[ [| Instr.Halt |]; [| Instr.Nop; Instr.Halt |] ]
      ~mem_words:16 ~init:[ (3, 42) ]
      ~symbols:[ ("x", 3) ]
      ()
  in
  Alcotest.(check int) "threads" 2 (Program.thread_count p);
  Alcotest.(check int) "symbol" 3 (Program.address_of p "x");
  Alcotest.(check int) "init applied" 42 (Program.initial_memory p).(3);
  Alcotest.(check int) "total instrs" 3 (Program.total_instrs p)

let tests =
  [
    Alcotest.test_case "reg bounds" `Quick test_reg_bounds;
    Alcotest.test_case "instr classification" `Quick test_instr_classify;
    Alcotest.test_case "instr reg usage" `Quick test_instr_regs;
    Alcotest.test_case "asm forward labels" `Quick test_asm_labels;
    Alcotest.test_case "asm unplaced label" `Quick test_asm_unplaced_label;
    Alcotest.test_case "asm backward label" `Quick test_asm_backward_label;
    Alcotest.test_case "layout alloc/align" `Quick test_layout_alloc;
    Alcotest.test_case "layout duplicate" `Quick test_layout_duplicate;
    Alcotest.test_case "layout init" `Quick test_layout_init;
    Alcotest.test_case "program validation" `Quick test_program_validation;
  ]
