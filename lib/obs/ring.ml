(* Slot [s] is words [stride * s] to [stride * s + 3] of [data]:
   [cycle; tag; a; b].  [a] and [b] are the constructor's payload:

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

   Until the ring first fills at [capacity], [start] stays 0 and slot
   [len] is the next free one; [data] doubles whenever it is full below
   [capacity].  From then on [len = capacity] and every push overwrites
   slot [start]. *)

let stride = 4
let initial_slots = 64

type t = {
  capacity : int;
  mutable data : int array;
  mutable start : int;  (* slot of the oldest entry *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    capacity;
    data = Array.make (stride * Int.min capacity initial_slots) 0;
    start = 0;
    len = 0;
    dropped = 0;
  }

let length t = t.len
let dropped t = t.dropped

(* The slot the next event goes to. *)
let claim t =
  let slots = Array.length t.data / stride in
  if t.len < slots then begin
    t.len <- t.len + 1;
    t.len - 1
  end
  else if slots < t.capacity then begin
    let data = Array.make (stride * Int.min t.capacity (2 * slots)) 0 in
    Array.blit t.data 0 data 0 (Array.length t.data);
    t.data <- data;
    t.len <- t.len + 1;
    t.len - 1
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

let set (d : int array) i cycle tag a b =
  d.(i) <- cycle;
  d.(i + 1) <- tag;
  d.(i + 2) <- a;
  d.(i + 3) <- b

let push t ~cycle (ev : Event.t) =
  let i = stride * claim t in
  let d = t.data in
  match ev with
  | Fence_stall_begin { pc; global } -> set d i cycle 0 pc (Bool.to_int global)
  | Fence_stall_end { pc; cycles } -> set d i cycle 1 pc cycles
  | Rob_dispatch { pc; cls } -> set d i cycle 2 pc (cls_code cls)
  | Rob_commit { pc; cls } -> set d i cycle 3 pc (cls_code cls)
  | Sb_insert { addr } -> set d i cycle 4 addr 0
  | Sb_drain { addr; value } -> set d i cycle 5 addr value
  | Scope_push { column = None } -> set d i cycle 6 0 0
  | Scope_push { column = Some c } -> set d i cycle 7 c 0
  | Scope_pop -> set d i cycle 8 0 0
  | Mem_access { addr; write; outcome } ->
    set d i cycle 9 addr ((2 * outcome_code outcome) + Bool.to_int write)
  | Cas_result { addr; success } -> set d i cycle 10 addr (Bool.to_int success)

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

let cycle_at t k = t.data.(stride * slot t k)

let timed t ~core k =
  let i = stride * slot t k and d = t.data in
  { Event.cycle = d.(i); core; event = decode d.(i + 1) d.(i + 2) d.(i + 3) }

(* Built back to front, one cons per event: each round takes the
   latest cycle any ring still holds and conses that cycle's events
   core by core, highest core first and each core newest first, so the
   finished list is in (cycle, core, emission) order without a sort. *)
let merge rings =
  let next = Array.map (fun r -> r.len - 1) rings in
  let remaining = ref (Array.fold_left (fun acc r -> acc + r.len) 0 rings) in
  let acc = ref [] in
  while !remaining > 0 do
    let c = ref min_int in
    Array.iteri
      (fun core r -> if next.(core) >= 0 then c := Int.max !c (cycle_at r next.(core)))
      rings;
    for core = Array.length rings - 1 downto 0 do
      let r = rings.(core) in
      while next.(core) >= 0 && cycle_at r next.(core) = !c do
        acc := timed r ~core next.(core) :: !acc;
        next.(core) <- next.(core) - 1;
        decr remaining
      done
    done
  done;
  !acc
