(* A slot is four consecutive words of a chunk: [cycle; tag; a; b].
   [a] and [b] are the constructor's payload:

     tag  constructor        a       b
     0    Fence_stall_begin  pc      global (0/1)
     1    Fence_stall_end    pc      cycles
     2    Rob_dispatch       pc      instr class code
     3    Rob_commit         pc      instr class code
     4    Sb_insert          addr    0
     5    Sb_drain           addr    value
     6    Scope_push None    0       0
     7    Scope_push Some c  c       0
     8    Scope_pop          0       0
     9    Mem_access         addr    outcome code * 2 + write (0/1)
     10   Cas_result         addr    success (0/1)

   The writers below ([rob_dispatch], ...) are the only encoder: the
   typed emitters in {!Trace} call them with the payload and never
   build the [Event.t].  [decode] is the only decoder, and the only
   place in the library that builds an [Event.t].

   Slot [s] is the [s mod chunk_slots]-th of chunk [s / chunk_slots],
   which is allocated when the ring first reaches it (the last one
   only as long as [capacity] needs) and never moved or copied.  Until
   the ring first fills at [capacity], [start] stays 0 and slot [len]
   is the next free one.  From then on [len = capacity] and every push
   overwrites slot [start]. *)

let stride = 4
let chunk_bits = 10
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1

type t = {
  capacity : int;
  chunks : int array array;  (* [||] until the ring reaches the chunk *)
  mutable start : int;  (* slot of the oldest entry *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    capacity;
    chunks = Array.make (((capacity - 1) lsr chunk_bits) + 1) [||];
    start = 0;
    len = 0;
    dropped = 0;
  }

let length t = t.len
let dropped t = t.dropped

(* The slot the next event goes to. *)
let claim t =
  if t.len < t.capacity then begin
    let s = t.len in
    if s land chunk_mask = 0 then
      t.chunks.(s lsr chunk_bits) <-
        Array.make (stride * Int.min chunk_slots (t.capacity - s)) 0;
    t.len <- s + 1;
    s
  end
  else begin
    let s = t.start in
    let next = s + 1 in
    t.start <- (if next = t.capacity then 0 else next);
    t.dropped <- t.dropped + 1;
    s
  end

let cls_code : Event.instr_class -> int = function
  | Load -> 0
  | Store -> 1
  | Cas -> 2
  | Fence -> 3
  | Branch -> 4
  | Jump -> 5
  | Alu -> 6
  | Other -> 7

let cls_of_code : int -> Event.instr_class = function
  | 0 -> Load
  | 1 -> Store
  | 2 -> Cas
  | 3 -> Fence
  | 4 -> Branch
  | 5 -> Jump
  | 6 -> Alu
  | _ -> Other

let outcome_code : Event.mem_outcome -> int = function
  | L1_hit -> 0
  | L2_hit -> 1
  | L2_miss -> 2

let outcome_of_code : int -> Event.mem_outcome = function
  | 0 -> L1_hit
  | 1 -> L2_hit
  | _ -> L2_miss

(* The tags, in the order of the table above. *)
let tag_fence_stall_begin = 0
let tag_fence_stall_end = 1
let tag_rob_dispatch = 2
let tag_rob_commit = 3
let tag_sb_insert = 4
let tag_sb_drain = 5
let tag_scope_push_none = 6
let tag_scope_push = 7
let tag_scope_pop = 8
let tag_mem_access = 9
let tag_cas_result = 10

let record t ~cycle tag a b =
  let s = claim t in
  let d = t.chunks.(s lsr chunk_bits) and i = stride * (s land chunk_mask) in
  d.(i) <- cycle;
  d.(i + 1) <- tag;
  d.(i + 2) <- a;
  d.(i + 3) <- b

let fence_stall_begin t ~cycle ~pc ~global =
  record t ~cycle tag_fence_stall_begin pc (Bool.to_int global)

let fence_stall_end t ~cycle ~pc ~cycles = record t ~cycle tag_fence_stall_end pc cycles
let rob_dispatch t ~cycle ~pc ~cls = record t ~cycle tag_rob_dispatch pc (cls_code cls)
let rob_commit t ~cycle ~pc ~cls = record t ~cycle tag_rob_commit pc (cls_code cls)
let sb_insert t ~cycle ~addr = record t ~cycle tag_sb_insert addr 0
let sb_drain t ~cycle ~addr ~value = record t ~cycle tag_sb_drain addr value
let scope_push_none t ~cycle = record t ~cycle tag_scope_push_none 0 0
let scope_push t ~cycle ~column = record t ~cycle tag_scope_push column 0
let scope_pop t ~cycle = record t ~cycle tag_scope_pop 0 0

let mem_access t ~cycle ~addr ~write ~outcome =
  record t ~cycle tag_mem_access addr ((2 * outcome_code outcome) + Bool.to_int write)

let cas_result t ~cycle ~addr ~success =
  record t ~cycle tag_cas_result addr (Bool.to_int success)

let decode tag a b : Event.t =
  match tag with
  | 0 -> Fence_stall_begin { pc = a; global = b = 1 }
  | 1 -> Fence_stall_end { pc = a; cycles = b }
  | 2 -> Rob_dispatch { pc = a; cls = cls_of_code b }
  | 3 -> Rob_commit { pc = a; cls = cls_of_code b }
  | 4 -> Sb_insert { addr = a }
  | 5 -> Sb_drain { addr = a; value = b }
  | 6 -> Scope_push { column = None }
  | 7 -> Scope_push { column = Some a }
  | 8 -> Scope_pop
  | 9 ->
    Mem_access { addr = a; write = b land 1 = 1; outcome = outcome_of_code (b lsr 1) }
  | _ -> Cas_result { addr = a; success = b = 1 }

(* The slot of the [k]-th oldest retained event. *)
let slot t k =
  let s = t.start + k in
  if s >= t.capacity then s - t.capacity else s

let chunk t s = t.chunks.(s lsr chunk_bits)
let word t s w = (chunk t s).((stride * (s land chunk_mask)) + w)
let cycle_at t k = word t (slot t k) 0

let timed t ~core k =
  let s = slot t k in
  let d = chunk t s and i = stride * (s land chunk_mask) in
  { Event.cycle = d.(i); core; event = decode d.(i + 1) d.(i + 2) d.(i + 3) }

let scope_counts t =
  let pushes = ref 0 and pops = ref 0 in
  for k = 0 to t.len - 1 do
    let tag = word t (slot t k) 1 in
    if tag = tag_scope_push || tag = tag_scope_push_none then incr pushes
    else if tag = tag_scope_pop then incr pops
  done;
  (!pushes, !pops)

(* Each round takes the earliest cycle any ring still holds and hands
   over that cycle's events core by core, lowest core first and each
   core oldest first: (cycle, core, emission) order without a sort. *)
let iter rings f =
  let next = Array.make (Array.length rings) 0 in
  let remaining = ref (Array.fold_left (fun acc r -> acc + r.len) 0 rings) in
  while !remaining > 0 do
    let c = ref max_int in
    for core = 0 to Array.length rings - 1 do
      let r = rings.(core) in
      if next.(core) < r.len then c := Int.min !c (cycle_at r next.(core))
    done;
    for core = 0 to Array.length rings - 1 do
      let r = rings.(core) in
      while next.(core) < r.len && cycle_at r next.(core) = !c do
        f (timed r ~core next.(core));
        next.(core) <- next.(core) + 1;
        decr remaining
      done
    done
  done
