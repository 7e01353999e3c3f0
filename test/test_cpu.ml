(* Direct unit tests for the CPU building blocks (the pipeline itself
   is covered end to end by test_sim and test_differential). *)

module Rob = Fscope_cpu.Rob
module Sb = Fscope_cpu.Store_buffer
module Bp = Fscope_cpu.Branch_pred
module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Fsb = Fscope_core.Fsb
module Fk = Fscope_isa.Fence_kind

(* Dispatch a nop with seq [seq] (which must be the next seq). *)
let dispatch_nop rob seq =
  Rob.dispatch rob (Rob.fresh rob ~seq ~state:Rob.Waiting ~done_at:0 ~addr:(-1) ~pc:seq ~instr:Instr.Nop)

let test_rob_fifo () =
  let rob = Rob.create ~size:4 ~columns:0 () in
  Alcotest.(check bool) "empty" true (Rob.is_empty rob);
  for s = 0 to 3 do
    dispatch_nop rob s
  done;
  Alcotest.(check bool) "full" true (Rob.is_full rob);
  Alcotest.(check int) "head is 0" 0 (Rob.pop_head rob).Rob.seq;
  dispatch_nop rob 4;
  Alcotest.(check int) "count" 4 (Rob.count rob);
  Alcotest.(check int) "head is 1" 1 (Rob.pop_head rob).Rob.seq

let test_rob_wrong_seq () =
  let rob = Rob.create ~size:4 ~columns:0 () in
  Alcotest.check_raises "wrong seq" (Invalid_argument "Rob.fresh: wrong seq") (fun () ->
      dispatch_nop rob 5)

let test_rob_squash () =
  let rob = Rob.create ~size:8 ~columns:0 () in
  for s = 0 to 5 do
    dispatch_nop rob s
  done;
  let removed = ref [] in
  Rob.squash_after rob 2 (fun acc (e : Rob.entry) -> acc := e.Rob.seq :: !acc) removed;
  Alcotest.(check (list int)) "removed 3,4,5, released oldest first" [ 3; 4; 5 ]
    (List.rev !removed);
  Alcotest.(check int) "count" 3 (Rob.count rob);
  Alcotest.(check int) "next seq" 3 (Rob.next_seq rob);
  dispatch_nop rob 3;
  Alcotest.(check bool) "re-dispatch ok" true (Rob.contains rob 3)

let test_rob_iteration_helpers () =
  let rob = Rob.create ~size:8 ~columns:0 () in
  for s = 0 to 4 do
    dispatch_nop rob s
  done;
  let has_seq s (e : Rob.entry) = e.Rob.seq = s in
  Alcotest.(check bool) "exists_older finds" true (Rob.exists_older rob 3 has_seq 2);
  Alcotest.(check bool) "exists_older bounded" false (Rob.exists_older rob 3 has_seq 3);
  let even () (e : Rob.entry) = e.Rob.seq mod 2 = 0 in
  Alcotest.(check int) "youngest_older finds the youngest" 2 (Rob.youngest_older rob 4 even ());
  Alcotest.(check int) "youngest_older bounded" 0 (Rob.youngest_older rob 2 even ());
  Alcotest.(check int) "youngest_older none" (-1) (Rob.youngest_older rob 0 even ())

(* Slots are recycled: the record a pop returns is the one the slot
   hands to the next dispatch into it, so whether a handle is in flight
   depends on the seq it was taken for, not on the record alone. *)
let test_rob_recycled_slot () =
  let rob = Rob.create ~size:4 ~columns:0 () in
  for s = 0 to 3 do
    dispatch_nop rob s
  done;
  let e = Rob.pop_head rob in
  Alcotest.(check bool) "popped entry is not in flight" false (Rob.in_flight rob e 0);
  dispatch_nop rob 4;
  Alcotest.(check bool) "the slot now holds seq 4" true (Rob.get rob 4 == e);
  Alcotest.(check bool) "a handle to seq 0 is still not in flight" false (Rob.in_flight rob e 0);
  Alcotest.(check bool) "the record is in flight as seq 4" true (Rob.in_flight rob e 4);
  Alcotest.check_raises "setting a popped entry's state"
    (Invalid_argument "Rob.set_state: entry not in flight") (fun () ->
      ignore (Rob.pop_head rob);
      let popped = Rob.get rob 2 in
      ignore (Rob.pop_head rob);
      ignore (Rob.pop_head rob);
      Rob.set_state rob popped Rob.Done)

(* The ROB's state queues, wait links and access queues, and the store
   buffer's column counts, must always agree with a recount over the
   window and the buffer, whatever sequence of dispatches, state and
   address changes, parks, squashes, commits, restores, mutating walks,
   pushes and drains built them.  Commit-and-refill bursts wrap the
   8-slot ROB about six times per case, so every slot's record is
   reused again and again; a popped or squashed handle must then be
   in flight under its old seq only if that seq was dispatched again.
   Op codes are decoded from random int triples so shrinking stays
   meaningful. *)
let columns = 3

(* Move [e] to the state coded by [k]: Waiting, Executing (until
   [k / 3]) or Done. *)
let set_state_code rob e k =
  match k mod 3 with
  | 0 -> Rob.set_state rob e Rob.Waiting
  | 1 -> Rob.set_executing rob e ~done_at:(k / 3)
  | _ -> Rob.set_state rob e Rob.Done

let state_of_code k =
  match k mod 3 with
  | 0 -> (Rob.Waiting, 0)
  | 1 -> (Rob.Executing, k / 3)
  | _ -> (Rob.Done, 0)

let is_waiting = function Rob.Waiting -> true | Rob.Executing | Rob.Done -> false
let is_executing = function Rob.Executing -> true | Rob.Waiting | Rob.Done -> false

(* The queue walk of the pipeline stages, with [f] as the visit. *)
let walk q rob f =
  let rec go slot =
    if slot >= 0 then begin
      let e = Rob.slot_entry rob slot and prev = Rob.queue_prev rob slot in
      f e;
      go (Rob.queue_next rob q slot prev)
    end
  in
  go (Rob.queue_first rob q)

let walk_seqs q rob =
  let acc = ref [] in
  walk q rob (fun (e : Rob.entry) -> acc := e.Rob.seq :: !acc);
  List.rev !acc

let window rob =
  let acc = ref [] in
  Rob.iter rob (fun e -> acc := e :: !acc);
  List.rev !acc

let seqs = List.map (fun (e : Rob.entry) -> e.Rob.seq)

(* The fresh entry for [seq], of kind [k mod 4] (nop, load, store,
   CAS) with state code [sk], scope bits and, for [k / 4] odd, a known
   address. *)
let mem_entry rob ~sk ~k seq =
  let r = Reg.zero in
  let instr =
    match k mod 4 with
    | 0 -> Instr.Nop
    | 1 -> Instr.Load { dst = r; base = r; off = 0; flagged = false }
    | 2 -> Instr.Store { src = r; base = r; off = 0; flagged = false }
    | _ -> Instr.Cas { dst = r; base = r; off = 0; expected = r; desired = r; flagged = false }
  in
  let state, done_at = state_of_code sk in
  let addr = if (k / 4) mod 2 = 1 then k else -1 in
  let e = Rob.fresh rob ~seq ~state ~done_at ~addr ~pc:seq ~instr in
  e.Rob.scope_mask <- (k / 8) mod (1 lsl columns);
  e

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

(* Handles (record, seq) of the entries that last left the window:
   popped, squashed or overwritten by a restore. *)
let gone : (Rob.entry * int) list ref = ref []

let note_gone (e : Rob.entry) = gone := (e, e.Rob.seq) :: List.filteri (fun i _ -> i < 32) !gone

(* The earliest completion cycle of the [Executing] entries [p] holds. *)
let earliest_due p es =
  List.fold_left
    (fun m (e : Rob.entry) ->
      if is_executing e.Rob.state && p e then min m e.Rob.done_at else m)
    max_int es

let is_load (e : Rob.entry) = match e.Rob.instr with Instr.Load _ -> true | _ -> false
let is_cas (e : Rob.entry) = match e.Rob.instr with Instr.Cas _ -> true | _ -> false

let invariants rob sb =
  let es = window rob in
  let waiting = List.filter (fun (e : Rob.entry) -> is_waiting e.Rob.state) es in
  let parked = List.filter (fun e -> Rob.parked_on rob e >= 0) es in
  let queued = walk_seqs Rob.waiting_q rob in
  let blocker_ok e =
    let b = Rob.parked_on rob e in
    is_waiting e.Rob.state && b < e.Rob.seq && Rob.contains rob b
    && (Rob.get rob b).Rob.state <> Rob.Done
  in
  let cols = Rob.all_columns :: List.init columns Fun.id in
  List.for_all (fun (e : Rob.entry) -> Rob.in_flight rob e e.Rob.seq) es
  (* a handle is in flight again only if its seq was dispatched again *)
  && List.for_all (fun (e, seq) -> Rob.in_flight rob e seq = Rob.contains rob seq) !gone
  && List.for_all blocker_ok parked
  && List.for_all (fun s -> not (List.mem s (seqs parked))) queued
  && List.sort compare (queued @ seqs parked) = seqs waiting
  && walk_seqs Rob.executing_q rob
     = seqs (List.filter (fun (e : Rob.entry) -> is_executing e.Rob.state) es)
  && List.for_all
       (fun col ->
         Rob.oldest_read rob col = oldest (fun e -> is_read e && in_col col e) es
         && Rob.oldest_store rob col = oldest (fun e -> is_store e && in_col col e) es)
       cols
  && Rob.oldest_unknown_addr rob = oldest is_unknown es
  && Rob.load_due rob <= earliest_due is_load es
  && Rob.cas_due rob <= earliest_due is_cas es
  &&
  let sbs = ref [] in
  Sb.iter sb (fun en -> sbs := en :: !sbs);
  List.for_all
    (fun c ->
      Sb.column_count sb c
      = List.length (List.filter (fun (en : Sb.entry) -> Fsb.mem c en.Sb.mask) !sbs))
    (List.init Sys.int_size Fun.id)

(* Park [e] on the oldest older entry not [Done], if it may be parked. *)
let try_park rob (e : Rob.entry) =
  if is_waiting e.Rob.state && Rob.parked_on rob e < 0 then
    match
      List.find_opt
        (fun (o : Rob.entry) -> o.Rob.seq < e.Rob.seq && o.Rob.state <> Rob.Done)
        (window rob)
    with
    | Some o -> Rob.park rob e ~blocker:o.Rob.seq
    | None -> ()

let squash rob seq = Rob.squash_after rob seq (fun () e -> note_gone e) ()

(* The seqs of the entries parked on [seq]. *)
let waiters rob seq = seqs (List.filter (fun e -> Rob.parked_on rob e = seq) (window rob))

(* Apply [f] to [e]: what is parked on [e] must be woken if [wakes],
   else stay parked. *)
let wakes_iff rob (e : Rob.entry) ~wakes f =
  let before = waiters rob e.Rob.seq in
  f ();
  waiters rob e.Rob.seq = if wakes then [] else before

(* Give [e] address [addr]: a [Waiting] entry given its first address
   wakes what is parked on it. *)
let set_addr rob (e : Rob.entry) addr =
  wakes_iff rob e
    ~wakes:(is_waiting e.Rob.state && e.Rob.addr < 0 && addr >= 0)
    (fun () -> Rob.set_addr rob e addr)

(* Walk one queue, acting on the i-th visited entry by 2-bit code i of
   [codes]: 1 moves it out of the queue (in the waiting walk, to
   [Executing] for an even seq, keeping what is parked on it, or to
   [Done] for an odd one, waking it), 2 moves it out and squashes
   everything younger, 3 parks it (waiting walk only), else it stays
   (in the waiting walk, given an address if it had none, which wakes
   what is parked on it).  The walk must visit, oldest first and
   only while they are queued, every entry in the queue at its start
   up to the first squash, nothing after it, and every entry in the
   queue at its end: entries woken during the walk are younger than
   the entry that woke them, so the walk reaches them. *)
let walk_and_check rob ~waiting ~codes =
  let q = if waiting then Rob.waiting_q else Rob.executing_q in
  let woke = ref true in
  let leave (e : Rob.entry) =
    let ok =
      if waiting && e.Rob.seq mod 2 = 0 then
        wakes_iff rob e ~wakes:false (fun () -> Rob.set_executing rob e ~done_at:0)
      else wakes_iff rob e ~wakes:true (fun () -> Rob.set_state rob e Rob.Done)
    in
    woke := !woke && ok
  in
  let before = walk_seqs q rob in
  let visited = ref [] in
  let squashed_at = ref max_int in
  let queued = ref true in
  walk q rob (fun e ->
      let code = (codes lsr (2 * (List.length !visited mod 30))) land 3 in
      visited := e.Rob.seq :: !visited;
      (queued :=
         !queued
         &&
         if waiting then is_waiting e.Rob.state && Rob.parked_on rob e < 0
         else is_executing e.Rob.state);
      if code = 0 && waiting && e.Rob.addr < 0 then
        woke := set_addr rob e e.Rob.seq && !woke;
      if code = 1 || code = 2 then leave e;
      if code = 2 then begin
        squashed_at := e.Rob.seq;
        squash rob e.Rob.seq
      end;
      if code = 3 && waiting then try_park rob e);
  let visited = List.rev !visited in
  let rec increasing = function a :: (b :: _ as r) -> a < b && increasing r | _ -> true in
  !woke && !queued && increasing visited
  && List.for_all (fun s -> s <= !squashed_at) visited
  && List.for_all (fun s -> s > !squashed_at || List.mem s visited) before
  && List.for_all (fun s -> List.mem s visited) (walk_seqs q rob)

let dispatch_mem rob ~sk ~k =
  if not (Rob.is_full rob) then Rob.dispatch rob (mem_entry rob ~sk ~k (Rob.next_seq rob))

let apply rob sb (op, a, b) =
  let n = Rob.count rob in
  let pick i = Rob.get rob (Rob.head_seq rob + (i mod n)) in
  match op mod 11 with
  | 0 ->
    dispatch_mem rob ~sk:a ~k:b;
    true
  | 1 ->
    (* only turning [Done] wakes what is parked on the entry *)
    n = 0
    ||
    let e = pick a in
    wakes_iff rob e
      ~wakes:(e.Rob.state <> Rob.Done && b mod 3 = 2)
      (fun () -> set_state_code rob e b)
  | 2 ->
    squash rob (Rob.head_seq rob - 1 + (a mod (n + 1)));
    true
  | 3 ->
    if n > 0 then note_gone (Rob.pop_head rob);
    true
  | 4 ->
    let head_seq = Rob.head_seq rob + (a mod 3) in
    Rob.iter rob note_gone;
    Rob.restore rob ~head_seq
      (List.init (b mod (Rob.size rob + 1)) Fun.id)
      (fun i -> mem_entry rob ~sk:(a + (7 * i)) ~k:(b + i) (head_seq + i));
    true
  | 5 -> walk_and_check rob ~waiting:(a mod 2 = 0) ~codes:b
  | 6 ->
    if n > 0 then try_park rob (pick a);
    true
  | 7 -> n = 0 || set_addr rob (pick a) (if b mod 2 = 0 then -1 else b)
  | 8 ->
    if not (Sb.is_full sb) then
      Sb.push sb ~addr:a ~value:0 ~mask:(b mod (1 lsl columns)) ~done_at:(a mod 16);
    true
  | 9 ->
    ignore (Sb.drain_due sb ~cycle:(a mod 16) (fun () ~addr:_ ~value:_ ~mask:_ -> ()) ());
    true
  | _ ->
    (* commit-and-refill burst: retire up to [a mod 8] entries, then
       dispatch up to [b mod 9], each parked behind the oldest waiting
       entry when it can be *)
    for _ = 1 to min (a mod 8) (Rob.count rob) do
      note_gone (Rob.pop_head rob)
    done;
    for i = 1 to b mod 9 do
      dispatch_mem rob ~sk:(a + i) ~k:(b + (3 * i));
      if (a + i) mod 2 = 0 && not (Rob.is_empty rob) then
        try_park rob (Rob.get rob (Rob.next_seq rob - 1))
    done;
    true

let prop_rob_queues =
  QCheck2.Test.make ~count:300 ~name:"rob state queues match the window"
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(list_size (int_range 0 300) (triple (int_bound 10) nat nat))
    (fun ops ->
      let rob = Rob.create ~size:8 ~columns () in
      let sb = Sb.create ~capacity:4 () in
      gone := [];
      List.for_all (fun op -> apply rob sb op && invariants rob sb) ops)

let sb_push ?(mask = Fsb.empty) sb ~addr ~done_at = Sb.push sb ~addr ~value:7 ~mask ~done_at

(* The addresses of the entries drained at [cycle], oldest first. *)
let drain sb ~cycle =
  let acc = ref [] in
  ignore (Sb.drain_due sb ~cycle (fun acc ~addr ~value:_ ~mask:_ -> acc := addr :: !acc) acc);
  List.rev !acc

let forward sb ~addr =
  let i = Sb.youngest_to sb ~addr in
  if i < 0 then None else Some (Sb.value_at sb i)

let test_sb_fifo_and_completion () =
  let sb = Sb.create ~capacity:4 () in
  sb_push sb ~addr:0 ~done_at:10;
  sb_push sb ~addr:8 ~done_at:5;
  sb_push sb ~addr:16 ~done_at:12;
  Alcotest.(check int) "count" 3 (Sb.count sb);
  Alcotest.(check (list int)) "early entry drains out of order" [ 8 ] (drain sb ~cycle:6);
  Alcotest.(check int) "two left" 2 (Sb.count sb);
  Alcotest.(check int) "the rest keep their order" 10 (Sb.due_at sb 0);
  Alcotest.(check (list int)) "then oldest first" [ 0; 16 ] (drain sb ~cycle:20);
  Alcotest.(check (list int)) "nothing due" [] (drain sb ~cycle:20)

let test_sb_forward_youngest () =
  let sb = Sb.create ~capacity:4 () in
  Sb.push sb ~addr:3 ~value:1 ~mask:Fsb.empty ~done_at:100;
  Sb.push sb ~addr:3 ~value:2 ~mask:Fsb.empty ~done_at:100;
  Alcotest.(check (option int)) "youngest wins" (Some 2) (forward sb ~addr:3);
  Alcotest.(check (option int)) "miss" None (forward sb ~addr:4)

let test_sb_mask_overlap () =
  let sb = Sb.create ~capacity:4 () in
  sb_push ~mask:(Fsb.column 1) sb ~addr:0 ~done_at:10;
  Alcotest.(check bool) "overlap" true (Sb.mask_overlaps sb (Fsb.column 1));
  Alcotest.(check bool) "no overlap" false (Sb.mask_overlaps sb (Fsb.column 2))

let test_sb_capacity () =
  let sb = Sb.create ~capacity:1 () in
  sb_push sb ~addr:0 ~done_at:1;
  Alcotest.(check bool) "full" true (Sb.is_full sb);
  Alcotest.check_raises "push full" (Invalid_argument "Store_buffer.push: full") (fun () ->
      sb_push sb ~addr:1 ~done_at:1)

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
   [latency] cycles and is served at [outcome]; [reads] records each
   read's (addr, issue cycle), and [each core cycle] runs after every
   cycle. *)
let run_core ?(latency = 7) ?(outcome = Fscope_obs.Event.L1_hit) ?(each = fun _ _ -> ())
    code =
  let mem = Array.make 64 0 in
  let reads = ref [] in
  let port =
    Fscope_cpu.Mem_port.make ~size:(Array.length mem)
      ~issue:(fun ~core:_ kind ~addr ~now ->
        if kind = Fscope_cpu.Mem_port.Read then reads := (addr, now) :: !reads;
        (now + latency, outcome))
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
    each core !cycle;
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

(* The entry with seq [seq], when in flight. *)
let in_rob core seq =
  let rob = Fscope_cpu.Core.rob core in
  if Rob.contains rob seq then Some (Rob.get rob seq) else None

(* A consumer of a main-memory load waits parked on it for the whole
   miss, not re-checked every cycle, and issues in the cycle the load
   completes (41, as before parking on issued producers). *)
let test_consumer_parks_for_miss () =
  let parked = ref 0 in
  let each core cycle =
    match (in_rob core 0, in_rob core 1) with
    | Some l, Some c when l.Rob.state = Rob.Executing ->
      Alcotest.(check bool) "the load misses" true (l.Rob.mem_level = Rob.Main);
      Alcotest.(check int)
        (Printf.sprintf "cycle %d: consumer parked on the load" cycle)
        0
        (Rob.parked_on (Fscope_cpu.Core.rob core) c);
      incr parked
    | _ -> ()
  in
  let base1 = Instr.Load { dst = Reg.r 2; base = Reg.r 1; off = 20; flagged = false } in
  let _, reads =
    run_core ~latency:40 ~outcome:Fscope_obs.Event.L2_miss ~each
      [| load ~dst:1 ~off:10; base1; Instr.Halt |]
  in
  let issued addr = List.assoc addr reads in
  Alcotest.(check int) "load issue cycle" 1 (issued 10);
  Alcotest.(check int) "consumer issues as the load completes" 41 (issued 20);
  Alcotest.(check int) "parked for the whole miss" 40 !parked

(* A load behind a store whose address is not known yet waits parked
   on the store, and issues in the cycle the store's address is
   computed (8, when the store's base arrives; as before such loads
   were parked). *)
let test_load_parks_on_unknown_store () =
  let parked = ref 0 in
  let each core cycle =
    match (in_rob core 1, in_rob core 2) with
    (* dispatched in cycle 0, first visited by issue in cycle 1 *)
    | Some s, Some l when cycle > 0 && s.Rob.addr < 0 && l.Rob.state = Rob.Waiting ->
      Alcotest.(check int)
        (Printf.sprintf "cycle %d: load parked on the store" cycle)
        1
        (Rob.parked_on (Fscope_cpu.Core.rob core) l);
      incr parked
    | _ -> ()
  in
  let st = Instr.Store { src = Reg.r 2; base = Reg.r 1; off = 30; flagged = false } in
  let _, reads =
    run_core ~each [| load ~dst:1 ~off:10; st; load ~dst:3 ~off:20; Instr.Halt |]
  in
  let issued addr = List.assoc addr reads in
  Alcotest.(check int) "base load issue cycle" 1 (issued 10);
  Alcotest.(check int) "load issues as the store's address is computed" 8 (issued 20);
  Alcotest.(check int) "parked until then" 7 !parked

(* Commit charges a stalled head fence to its store-buffer drain leaf;
   an unscoped fence lands in the unscoped leaf, and nothing else
   charges fence cycles. *)
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
    (Cpi.get cpi (Cpi.Fence_wait Cpi.Unscoped) > 0);
  Alcotest.(check int) "every fence cycle is unscoped" (Cpi.fence_cycles cpi)
    (Cpi.fence_scope_cycles cpi Cpi.Unscoped)

let tests =
  [
    Alcotest.test_case "rob fifo" `Quick test_rob_fifo;
    Alcotest.test_case "rob wrong seq" `Quick test_rob_wrong_seq;
    Alcotest.test_case "rob squash" `Quick test_rob_squash;
    Alcotest.test_case "rob iteration" `Quick test_rob_iteration_helpers;
    Alcotest.test_case "rob recycled slot" `Quick test_rob_recycled_slot;
    QCheck_alcotest.to_alcotest prop_rob_queues;
    Alcotest.test_case "sb completion order" `Quick test_sb_fifo_and_completion;
    Alcotest.test_case "sb forwarding" `Quick test_sb_forward_youngest;
    Alcotest.test_case "sb mask overlap" `Quick test_sb_mask_overlap;
    Alcotest.test_case "sb capacity" `Quick test_sb_capacity;
    Alcotest.test_case "bpred learning" `Quick test_bpred_learns;
    Alcotest.test_case "bpred aliasing" `Quick test_bpred_aliasing;
    Alcotest.test_case "fence kind flavors" `Quick test_fence_kind_flavors;
    Alcotest.test_case "fence wakes load same cycle" `Quick test_fence_wakes_load_same_cycle;
    Alcotest.test_case "consumer parks for a miss" `Quick test_consumer_parks_for_miss;
    Alcotest.test_case "load parks on unknown store address" `Quick
      test_load_parks_on_unknown_store;
    Alcotest.test_case "head fence stall is sb drain" `Quick
      test_head_fence_stall_is_sb_drain;
  ]
