(* Direct unit tests for the CPU building blocks (the pipeline itself
   is covered end to end by test_sim and test_differential). *)

module Rob = Fscope_cpu.Rob
module Sb = Fscope_cpu.Store_buffer
module Bp = Fscope_cpu.Branch_pred
module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Fsb = Fscope_core.Fsb
module Fk = Fscope_isa.Fence_kind

let entry seq = Rob.make_entry ~state:Rob.Waiting ~seq ~pc:seq ~instr:Instr.Nop ~srcs:[||]

let test_rob_fifo () =
  let rob = Rob.create ~size:4 () in
  Alcotest.(check bool) "empty" true (Rob.is_empty rob);
  for s = 0 to 3 do
    Rob.dispatch rob (entry s)
  done;
  Alcotest.(check bool) "full" true (Rob.is_full rob);
  Alcotest.(check int) "head is 0" 0 (Rob.pop_head rob).Rob.seq;
  Rob.dispatch rob (entry 4);
  Alcotest.(check int) "count" 4 (Rob.count rob);
  Alcotest.(check int) "head is 1" 1 (Rob.pop_head rob).Rob.seq

let test_rob_wrong_seq () =
  let rob = Rob.create ~size:4 () in
  Alcotest.check_raises "wrong seq" (Invalid_argument "Rob.dispatch: wrong seq") (fun () ->
      Rob.dispatch rob (entry 5))

let test_rob_squash () =
  let rob = Rob.create ~size:8 () in
  for s = 0 to 5 do
    Rob.dispatch rob (entry s)
  done;
  let removed = Rob.squash_after rob 2 in
  Alcotest.(check (list int)) "removed 3,4,5" [ 3; 4; 5 ]
    (List.map (fun (e : Rob.entry) -> e.Rob.seq) removed);
  Alcotest.(check int) "count" 3 (Rob.count rob);
  Alcotest.(check int) "next seq" 3 (Rob.next_seq rob);
  Rob.dispatch rob (entry 3);
  Alcotest.(check bool) "re-dispatch ok" true (Rob.contains rob 3)

let test_rob_iteration_helpers () =
  let rob = Rob.create ~size:8 () in
  for s = 0 to 4 do
    Rob.dispatch rob (entry s)
  done;
  Alcotest.(check bool) "exists_older finds" true
    (Rob.exists_older rob 3 (fun e -> e.Rob.seq = 2));
  Alcotest.(check bool) "exists_older bounded" false
    (Rob.exists_older rob 3 (fun e -> e.Rob.seq = 3));
  let seen = Rob.fold_older rob 4 (fun acc e -> e.Rob.seq :: acc) [] in
  Alcotest.(check (list int)) "fold_older oldest-first" [ 3; 2; 1; 0 ] seen

(* The Waiting and Executing sub-queues must always hold exactly the
   window's entries in that state, oldest first, whatever sequence of
   dispatches, state changes, squashes, commits, restores and mutating
   walks built the window.  Op codes are decoded from random int
   triples so shrinking stays meaningful. *)
let state_of_int k =
  match k mod 3 with
  | 0 -> Rob.Waiting
  | 1 -> Rob.Executing (k / 3)
  | _ -> Rob.Done

let is_waiting = function Rob.Waiting -> true | Rob.Executing _ | Rob.Done -> false
let is_executing = function Rob.Executing _ -> true | Rob.Waiting | Rob.Done -> false

let walk_seqs walk rob =
  let acc = ref [] in
  walk rob (fun (e : Rob.entry) -> acc := e.Rob.seq :: !acc);
  List.rev !acc

let window_seqs rob p =
  walk_seqs (fun rob f -> Rob.iter rob (fun e -> if p e.Rob.state then f e)) rob

let queues_agree rob =
  walk_seqs Rob.iter_waiting rob = window_seqs rob is_waiting
  && walk_seqs Rob.iter_exec rob = window_seqs rob is_executing

let nop ~state seq = Rob.make_entry ~state ~seq ~pc:seq ~instr:Instr.Nop ~srcs:[||]

(* Walk one queue, acting on the i-th visited entry by 2-bit code i of
   [codes]: 1 moves it out of the queue, 2 moves it out and squashes
   everything younger, else it stays.  The walk must visit the queue's
   entries at its start, oldest first, up to the first squash. *)
let walk_and_check rob ~waiting ~codes =
  let walk, out =
    if waiting then (Rob.iter_waiting, Rob.Executing 0) else (Rob.iter_exec, Rob.Done)
  in
  let before = walk_seqs walk rob in
  let visited = ref [] in
  walk rob (fun e ->
      let code = (codes lsr (2 * (List.length !visited mod 30))) land 3 in
      visited := e.Rob.seq :: !visited;
      if code = 1 || code = 2 then Rob.set_state rob e out;
      if code = 2 then ignore (Rob.squash_after rob e.Rob.seq));
  let rec upto_squash i = function
    | [] -> []
    | s :: rest ->
      let code = (codes lsr (2 * (i mod 30))) land 3 in
      if code = 2 then [ s ] else s :: upto_squash (i + 1) rest
  in
  List.rev !visited = upto_squash 0 before

let apply rob (op, a, b) =
  let n = Rob.count rob in
  match op mod 6 with
  | 0 ->
    if not (Rob.is_full rob) then
      Rob.dispatch rob (nop ~state:(state_of_int a) (Rob.next_seq rob));
    true
  | 1 ->
    if n > 0 then
      Rob.set_state rob (Rob.get rob (Rob.head_seq rob + (a mod n))) (state_of_int b);
    true
  | 2 ->
    ignore (Rob.squash_after rob (Rob.head_seq rob - 1 + (a mod (n + 1))));
    true
  | 3 ->
    if n > 0 then ignore (Rob.pop_head rob);
    true
  | 4 ->
    let head_seq = Rob.head_seq rob + (a mod 3) in
    Rob.restore rob ~head_seq
      (List.init
         (b mod (Rob.size rob + 1))
         (fun i -> nop ~state:(state_of_int (a + (7 * i))) (head_seq + i)));
    true
  | _ -> walk_and_check rob ~waiting:(a mod 2 = 0) ~codes:b

let prop_rob_queues =
  QCheck2.Test.make ~count:300 ~name:"rob state queues match the window"
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(list_size (int_range 0 80) (triple (int_bound 5) nat nat))
    (fun ops ->
      let rob = Rob.create ~size:8 () in
      List.for_all (fun op -> apply rob op && queues_agree rob) ops)

let sb_entry ?(mask = Fsb.empty) ~addr ~done_at () =
  { Sb.addr; value = 7; mask; done_at }

let test_sb_fifo_and_completion () =
  let sb = Sb.create ~capacity:4 () in
  Sb.push sb (sb_entry ~addr:0 ~done_at:10 ());
  Sb.push sb (sb_entry ~addr:8 ~done_at:5 ());
  Alcotest.(check int) "count" 2 (Sb.count sb);
  let done_ = Sb.take_completed sb ~cycle:6 in
  Alcotest.(check (list int)) "early entry drains out of order" [ 8 ]
    (List.map (fun (e : Sb.entry) -> e.Sb.addr) done_);
  Alcotest.(check int) "one left" 1 (Sb.count sb)

let test_sb_forward_youngest () =
  let sb = Sb.create ~capacity:4 () in
  Sb.push sb { Sb.addr = 3; value = 1; mask = Fsb.empty; done_at = 100 };
  Sb.push sb { Sb.addr = 3; value = 2; mask = Fsb.empty; done_at = 100 };
  Alcotest.(check (option int)) "youngest wins" (Some 2) (Sb.forward sb ~addr:3);
  Alcotest.(check (option int)) "miss" None (Sb.forward sb ~addr:4)

let test_sb_mask_overlap () =
  let sb = Sb.create ~capacity:4 () in
  Sb.push sb (sb_entry ~mask:(Fsb.column 1) ~addr:0 ~done_at:10 ());
  Alcotest.(check bool) "overlap" true (Sb.mask_overlaps sb (Fsb.column 1));
  Alcotest.(check bool) "no overlap" false (Sb.mask_overlaps sb (Fsb.column 2))

let test_sb_capacity () =
  let sb = Sb.create ~capacity:1 () in
  Sb.push sb (sb_entry ~addr:0 ~done_at:1 ());
  Alcotest.(check bool) "full" true (Sb.is_full sb);
  Alcotest.check_raises "push full" (Invalid_argument "Store_buffer.push: full") (fun () ->
      Sb.push sb (sb_entry ~addr:1 ~done_at:1 ()))

let test_bpred_learns () =
  let bp = Bp.create ~entries:16 in
  (* initial state is weakly not-taken *)
  Alcotest.(check bool) "cold predicts not-taken" false (Bp.predict bp ~pc:3);
  Bp.update bp ~pc:3 ~taken:true;
  Alcotest.(check bool) "one taken flips weak counter" true (Bp.predict bp ~pc:3);
  Bp.update bp ~pc:3 ~taken:true;
  Bp.update bp ~pc:3 ~taken:false;
  Alcotest.(check bool) "hysteresis survives one not-taken" true (Bp.predict bp ~pc:3);
  Bp.update bp ~pc:3 ~taken:false;
  Bp.update bp ~pc:3 ~taken:false;
  Alcotest.(check bool) "retrained" false (Bp.predict bp ~pc:3)

let test_bpred_aliasing () =
  let bp = Bp.create ~entries:4 in
  Bp.update bp ~pc:0 ~taken:true;
  Bp.update bp ~pc:0 ~taken:true;
  (* pc 4 aliases pc 0 in a 4-entry table *)
  Alcotest.(check bool) "aliased entry shares state" true (Bp.predict bp ~pc:4)

let test_fence_kind_flavors () =
  Alcotest.(check bool) "full waits stores" true Fk.full.Fk.wait_stores;
  let ss = Fk.store_store Fk.class_scoped in
  Alcotest.(check bool) "ss keeps scope" true (Fk.scope_of ss = Fk.Class_scope);
  Alcotest.(check bool) "ss skips loads" false ss.Fk.wait_loads;
  Alcotest.(check bool) "ss does not block loads" false ss.Fk.block_loads;
  let ll = Fk.load_load Fk.set_scoped in
  Alcotest.(check bool) "ll skips stores" false ll.Fk.wait_stores;
  Alcotest.(check bool) "ll blocks loads" true ll.Fk.block_loads;
  Alcotest.(check string) "printing" "S-FENCE[class].ss" (Fk.to_string ss)

let tests =
  [
    Alcotest.test_case "rob fifo" `Quick test_rob_fifo;
    Alcotest.test_case "rob wrong seq" `Quick test_rob_wrong_seq;
    Alcotest.test_case "rob squash" `Quick test_rob_squash;
    Alcotest.test_case "rob iteration" `Quick test_rob_iteration_helpers;
    QCheck_alcotest.to_alcotest prop_rob_queues;
    Alcotest.test_case "sb completion order" `Quick test_sb_fifo_and_completion;
    Alcotest.test_case "sb forwarding" `Quick test_sb_forward_youngest;
    Alcotest.test_case "sb mask overlap" `Quick test_sb_mask_overlap;
    Alcotest.test_case "sb capacity" `Quick test_sb_capacity;
    Alcotest.test_case "bpred learning" `Quick test_bpred_learns;
    Alcotest.test_case "bpred aliasing" `Quick test_bpred_aliasing;
    Alcotest.test_case "fence kind flavors" `Quick test_fence_kind_flavors;
  ]
