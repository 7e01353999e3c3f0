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
  let rob = Rob.create ~size:4 ~columns:0 () in
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
  let rob = Rob.create ~size:4 ~columns:0 () in
  Alcotest.check_raises "wrong seq" (Invalid_argument "Rob.dispatch: wrong seq") (fun () ->
      Rob.dispatch rob (entry 5))

let test_rob_squash () =
  let rob = Rob.create ~size:8 ~columns:0 () in
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
  let rob = Rob.create ~size:8 ~columns:0 () in
  for s = 0 to 4 do
    Rob.dispatch rob (entry s)
  done;
  Alcotest.(check bool) "exists_older finds" true
    (Rob.exists_older rob 3 (fun e -> e.Rob.seq = 2));
  Alcotest.(check bool) "exists_older bounded" false
    (Rob.exists_older rob 3 (fun e -> e.Rob.seq = 3));
  let seen = Rob.fold_older rob 4 (fun acc e -> e.Rob.seq :: acc) [] in
  Alcotest.(check (list int)) "fold_older oldest-first" [ 3; 2; 1; 0 ] seen

(* The ROB's state queues, wait links and access queues, and the store
   buffer's column counts, must always agree with a recount over the
   window and the buffer, whatever sequence of dispatches, state and
   address changes, parks, squashes, commits, restores, mutating walks,
   pushes and drains built them.  Op codes are decoded from random int
   triples so shrinking stays meaningful. *)
let columns = 3

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

let window rob =
  let acc = ref [] in
  Rob.iter rob (fun e -> acc := e :: !acc);
  List.rev !acc

let seqs = List.map (fun (e : Rob.entry) -> e.Rob.seq)

(* An entry of kind [k mod 4] (nop, load, store, CAS) with scope bits
   and, for [k / 4] odd, a known address. *)
let mem_entry ~state ~k seq =
  let r = Reg.zero in
  let instr =
    match k mod 4 with
    | 0 -> Instr.Nop
    | 1 -> Instr.Load { dst = r; base = r; off = 0; flagged = false }
    | 2 -> Instr.Store { src = r; base = r; off = 0; flagged = false }
    | _ -> Instr.Cas { dst = r; base = r; off = 0; expected = r; desired = r; flagged = false }
  in
  let e = Rob.make_entry ~state ~seq ~pc:seq ~instr ~srcs:[||] in
  e.Rob.scope_mask <- (k / 8) mod (1 lsl columns);
  { e with Rob.addr = (if (k / 4) mod 2 = 1 then k else -1) }

let is_read (e : Rob.entry) =
  match e.Rob.instr with
  | Instr.Load _ | Instr.Cas _ -> e.Rob.state <> Rob.Done
  | _ -> false

let is_store (e : Rob.entry) =
  match e.Rob.instr with
  | Instr.Store _ -> true
  | Instr.Cas _ -> e.Rob.state <> Rob.Done
  | _ -> false

let is_unknown (e : Rob.entry) =
  match e.Rob.instr with Instr.Store _ | Instr.Cas _ -> e.Rob.addr < 0 | _ -> false

let oldest p es =
  List.fold_left (fun m (e : Rob.entry) -> if p e then min m e.Rob.seq else m) max_int es

let in_col col (e : Rob.entry) = col = Rob.all_columns || Fsb.mem col e.Rob.scope_mask

let invariants rob sb =
  let es = window rob in
  let waiting = List.filter (fun (e : Rob.entry) -> is_waiting e.Rob.state) es in
  let parked = List.filter (fun e -> Rob.parked_on rob e >= 0) es in
  let queued = walk_seqs Rob.iter_waiting rob in
  let blocker_ok e =
    let b = Rob.parked_on rob e in
    is_waiting e.Rob.state && b < e.Rob.seq && Rob.contains rob b
    && is_waiting (Rob.get rob b).Rob.state
  in
  let cols = Rob.all_columns :: List.init columns Fun.id in
  List.for_all blocker_ok parked
  && List.for_all (fun s -> not (List.mem s (seqs parked))) queued
  && List.sort compare (queued @ seqs parked) = seqs waiting
  && walk_seqs Rob.iter_exec rob
     = seqs (List.filter (fun (e : Rob.entry) -> is_executing e.Rob.state) es)
  && List.for_all
       (fun col ->
         Rob.oldest_read rob col = oldest (fun e -> is_read e && in_col col e) es
         && Rob.oldest_store rob col = oldest (fun e -> is_store e && in_col col e) es)
       cols
  && Rob.oldest_unknown_addr rob = oldest is_unknown es
  &&
  let sbs = ref [] in
  Sb.iter sb (fun en -> sbs := en :: !sbs);
  List.for_all
    (fun c ->
      Sb.column_count sb c
      = List.length (List.filter (fun (en : Sb.entry) -> Fsb.mem c en.Sb.mask) !sbs))
    (List.init Sys.int_size Fun.id)

(* Park [e] on the oldest older [Waiting] entry, if it may be parked. *)
let try_park rob (e : Rob.entry) =
  if is_waiting e.Rob.state && Rob.parked_on rob e < 0 then
    match
      List.find_opt
        (fun (o : Rob.entry) -> o.Rob.seq < e.Rob.seq && is_waiting o.Rob.state)
        (window rob)
    with
    | Some o -> Rob.park rob e ~blocker:o.Rob.seq
    | None -> ()

(* Walk one queue, acting on the i-th visited entry by 2-bit code i of
   [codes]: 1 moves it out of the queue (waking what is parked on it),
   2 moves it out and squashes everything younger, 3 parks it (waiting
   walk only), else it stays.  The walk must visit, oldest first and
   only while they are queued, every entry in the queue at its start
   up to the first squash, nothing after it, and every entry in the
   queue at its end: entries woken during the walk are younger than
   the entry that woke them, so the walk reaches them. *)
let walk_and_check rob ~waiting ~codes =
  let walk, out =
    if waiting then (Rob.iter_waiting, Rob.Executing 0) else (Rob.iter_exec, Rob.Done)
  in
  let before = walk_seqs walk rob in
  let visited = ref [] in
  let squashed_at = ref max_int in
  let queued = ref true in
  walk rob (fun e ->
      let code = (codes lsr (2 * (List.length !visited mod 30))) land 3 in
      visited := e.Rob.seq :: !visited;
      (queued :=
         !queued
         &&
         if waiting then is_waiting e.Rob.state && Rob.parked_on rob e < 0
         else is_executing e.Rob.state);
      if code = 1 || code = 2 then Rob.set_state rob e out;
      if code = 2 then begin
        squashed_at := e.Rob.seq;
        ignore (Rob.squash_after rob e.Rob.seq)
      end;
      if code = 3 && waiting then try_park rob e);
  let visited = List.rev !visited in
  let rec increasing = function a :: (b :: _ as r) -> a < b && increasing r | _ -> true in
  !queued && increasing visited
  && List.for_all (fun s -> s <= !squashed_at) visited
  && List.for_all (fun s -> s > !squashed_at || List.mem s visited) before
  && List.for_all (fun s -> List.mem s visited) (walk_seqs walk rob)

let apply rob sb (op, a, b) =
  let n = Rob.count rob in
  let pick i = Rob.get rob (Rob.head_seq rob + (i mod n)) in
  match op mod 10 with
  | 0 ->
    if not (Rob.is_full rob) then
      Rob.dispatch rob (mem_entry ~state:(state_of_int a) ~k:b (Rob.next_seq rob));
    true
  | 1 ->
    if n > 0 then Rob.set_state rob (pick a) (state_of_int b);
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
         (fun i -> mem_entry ~state:(state_of_int (a + (7 * i))) ~k:(b + i) (head_seq + i)));
    true
  | 5 -> walk_and_check rob ~waiting:(a mod 2 = 0) ~codes:b
  | 6 ->
    if n > 0 then try_park rob (pick a);
    true
  | 7 ->
    if n > 0 then Rob.set_addr rob (pick a) (if b mod 2 = 0 then -1 else b);
    true
  | 8 ->
    if not (Sb.is_full sb) then
      Sb.push sb { Sb.addr = a; value = 0; mask = b mod (1 lsl columns); done_at = a mod 16 };
    true
  | _ ->
    ignore (Sb.take_completed sb ~cycle:(a mod 16));
    true

let prop_rob_queues =
  QCheck2.Test.make ~count:300 ~name:"rob state queues match the window"
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(list_size (int_range 0 80) (triple (int_bound 9) nat nat))
    (fun ops ->
      let rob = Rob.create ~size:8 ~columns () in
      let sb = Sb.create ~capacity:4 () in
      List.for_all (fun op -> apply rob sb op && invariants rob sb) ops)

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

(* A one-core pipeline on a flat memory whose every access takes
   [latency] cycles; [reads] records each read's (addr, issue cycle). *)
let run_core ?(latency = 7) code =
  let mem = Array.make 64 0 in
  let reads = ref [] in
  let port =
    Fscope_cpu.Mem_port.make ~size:(Array.length mem)
      ~issue:(fun ~core:_ kind ~addr ~now ->
        if kind = Fscope_cpu.Mem_port.Read then reads := (addr, now) :: !reads;
        (now + latency, Fscope_obs.Event.L1_hit))
      ~load:(fun ~addr -> mem.(addr))
      ~store:(fun ~addr ~value -> mem.(addr) <- value)
  in
  let core =
    Fscope_cpu.Core.create ~id:0 ~code ~port
      ~scope_config:Fscope_core.Scope_unit.default_config
      ~exec_config:Fscope_cpu.Exec_config.default ()
  in
  let cycle = ref 0 in
  while not (Fscope_cpu.Core.drained core) && !cycle < 1000 do
    ignore (Fscope_cpu.Core.step_complete_writes core ~cycle:!cycle);
    ignore (Fscope_cpu.Core.step_complete_reads core ~cycle:!cycle);
    ignore (Fscope_cpu.Core.step_pipeline core ~cycle:!cycle);
    incr cycle
  done;
  (core, List.rev !reads)

let load ~dst ~off = Instr.Load { dst = Reg.r dst; base = Reg.zero; off; flagged = false }

(* A full fence blocks younger loads until its older load completes;
   it issues in the cycle that load completes, and the younger load
   parked behind it must issue in that same cycle. *)
let test_fence_wakes_load_same_cycle () =
  let _, reads =
    run_core [| load ~dst:1 ~off:10; Instr.Fence Fk.full; load ~dst:2 ~off:20; Instr.Halt |]
  in
  let issued addr = List.assoc addr reads in
  Alcotest.(check int) "older load issue cycle" 1 (issued 10);
  Alcotest.(check int) "younger load issues as the fence does" 8 (issued 20)

(* Commit charges a stalled head fence; nothing older is left in the
   ROB, so the store buffer is the only cause. *)
let test_head_fence_stall_is_sb_drain () =
  let core, _ =
    run_core ~latency:40
      [|
        Instr.Li (Reg.r 1, 5);
        Instr.Store { src = Reg.r 1; base = Reg.zero; off = 3; flagged = false };
        Instr.Fence Fk.full;
        Instr.Halt;
      |]
  in
  let cpi = Fscope_cpu.Core.cpi core in
  let module Cpi = Fscope_obs.Cpi in
  Alcotest.(check bool) "stalled on the drain" true
    (Cpi.get cpi (Cpi.Fence_wait (Cpi.Sb_drain, Cpi.Unscoped)) > 0);
  Alcotest.(check int) "no ROB-load cause" 0 (Cpi.fence_cause_cycles cpi Cpi.Rob_load);
  Alcotest.(check int) "no ROB-store cause" 0 (Cpi.fence_cause_cycles cpi Cpi.Rob_store);
  Alcotest.(check int) "every fence cycle is the drain" (Cpi.fence_cycles cpi)
    (Cpi.fence_cause_cycles cpi Cpi.Sb_drain)

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
    Alcotest.test_case "fence wakes load same cycle" `Quick test_fence_wakes_load_same_cycle;
    Alcotest.test_case "head fence stall is sb drain" `Quick
      test_head_fence_stall_is_sb_drain;
  ]
