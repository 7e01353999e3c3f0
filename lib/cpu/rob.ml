type producer =
  | Arch
  | Rob of int

type src = {
  producer : producer;
  reg : Fscope_isa.Reg.t;
}

type exec_state =
  | Waiting
  | Executing of int
  | Done

type entry = {
  seq : int;
  pc : int;
  instr : Fscope_isa.Instr.t;
  srcs : src array;
  mutable state : exec_state;
  mutable result : int;
  mutable addr : int;
  mutable data : int;
  mutable data2 : int;
  mutable scope_mask : Fscope_core.Fsb.mask;
  mutable fence_wait : [ `Global | `Mask of Fscope_core.Fsb.mask ] option;
  mutable fence_issued : bool;
  mutable fence_cid : int;
  mutable mem_level : Fscope_obs.Event.mem_outcome option;
  mutable predicted_taken : bool;
  mutable checkpoint : producer array option;
}

let make_entry ~state ~seq ~pc ~instr ~srcs =
  {
    seq;
    pc;
    instr;
    srcs;
    state;
    result = 0;
    addr = -1;
    data = 0;
    data2 = 0;
    scope_mask = Fscope_core.Fsb.empty;
    fence_wait = None;
    fence_issued = false;
    fence_cid = -1;
    mem_level = None;
    predicted_taken = false;
    checkpoint = None;
  }

(* The window is a circular buffer of slots ([seq mod size]).  Beside
   it, the [Waiting] and the [Executing] entries each form an
   oldest-first doubly linked queue threaded through the per-slot
   [next]/[prev] arrays; [first.(q)]/[last.(q)] are the ends of queue
   [q] (slot indices, -1 = none).  An entry's [state] alone says which
   queue holds it, which is why only [set_state] may change it. *)
type t = {
  size : int;
  slots : entry option array;
  mutable head_seq : int;
  mutable tail_seq : int;
  next : int array;
  prev : int array;
  first : int array;
  last : int array;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let waiting_q = 0
let executing_q = 1

let queue_of = function
  | Waiting -> waiting_q
  | Executing _ -> executing_q
  | Done -> -1

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) ~size () =
  if size <= 0 then invalid_arg "Rob.create: size must be positive";
  {
    size;
    slots = Array.make size None;
    head_seq = 0;
    tail_seq = 0;
    next = Array.make size (-1);
    prev = Array.make size (-1);
    first = [| -1; -1 |];
    last = [| -1; -1 |];
    trace;
    core;
  }

let at t slot =
  match t.slots.(slot) with
  | Some e -> e
  | None -> assert false

(* Insert [slot] into queue [q] in seq order.  The search runs from the
   young end: dispatch appends, and an issuing entry is usually among
   the youngest executing ones. *)
let link t q slot =
  let seq = (at t slot).seq in
  let rec older s = if s < 0 || (at t s).seq < seq then s else older t.prev.(s) in
  let p = older t.last.(q) in
  let n = if p < 0 then t.first.(q) else t.next.(p) in
  t.prev.(slot) <- p;
  t.next.(slot) <- n;
  if p < 0 then t.first.(q) <- slot else t.next.(p) <- slot;
  if n < 0 then t.last.(q) <- slot else t.prev.(n) <- slot

let unlink t q slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  if p < 0 then t.first.(q) <- n else t.next.(p) <- n;
  if n < 0 then t.last.(q) <- p else t.prev.(n) <- p

let enqueue t e =
  let q = queue_of e.state in
  if q >= 0 then link t q (e.seq mod t.size)

let dequeue t e =
  let q = queue_of e.state in
  if q >= 0 then unlink t q (e.seq mod t.size)

let instr_class (i : Fscope_isa.Instr.t) : Fscope_obs.Event.instr_class =
  match i with
  | Fscope_isa.Instr.Load _ -> Fscope_obs.Event.Load
  | Fscope_isa.Instr.Store _ -> Fscope_obs.Event.Store
  | Fscope_isa.Instr.Cas _ -> Fscope_obs.Event.Cas
  | Fscope_isa.Instr.Fence _ -> Fscope_obs.Event.Fence
  | Fscope_isa.Instr.Branch _ -> Fscope_obs.Event.Branch
  | Fscope_isa.Instr.Jump _ -> Fscope_obs.Event.Jump
  | Fscope_isa.Instr.Li _ | Fscope_isa.Instr.Alu _ | Fscope_isa.Instr.Tid _ ->
    Fscope_obs.Event.Alu
  | Fscope_isa.Instr.Nop | Fscope_isa.Instr.Fs_start _ | Fscope_isa.Instr.Fs_end _
  | Fscope_isa.Instr.Halt ->
    Fscope_obs.Event.Other

let size t = t.size
let count t = t.tail_seq - t.head_seq
let is_full t = count t >= t.size
let is_empty t = count t = 0
let next_seq t = t.tail_seq

let dispatch t entry =
  if is_full t then invalid_arg "Rob.dispatch: full";
  if entry.seq <> t.tail_seq then invalid_arg "Rob.dispatch: wrong seq";
  t.slots.(entry.seq mod t.size) <- Some entry;
  t.tail_seq <- t.tail_seq + 1;
  enqueue t entry;
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Rob_dispatch { pc = entry.pc; cls = instr_class entry.instr })

let contains t seq = seq >= t.head_seq && seq < t.tail_seq

let get t seq =
  if not (contains t seq) then invalid_arg "Rob.get: seq not in flight";
  match t.slots.(seq mod t.size) with
  | Some e -> e
  | None -> assert false

let head t = if is_empty t then None else Some (get t t.head_seq)

let pop_head t =
  if is_empty t then invalid_arg "Rob.pop_head: empty";
  let e = get t t.head_seq in
  dequeue t e;
  t.slots.(t.head_seq mod t.size) <- None;
  t.head_seq <- t.head_seq + 1;
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Rob_commit { pc = e.pc; cls = instr_class e.instr });
  e

let squash_after t seq =
  let removed = ref [] in
  for s = t.tail_seq - 1 downto max (seq + 1) t.head_seq do
    let e = get t s in
    dequeue t e;
    removed := e :: !removed;
    t.slots.(s mod t.size) <- None
  done;
  if seq + 1 < t.tail_seq then t.tail_seq <- max (seq + 1) t.head_seq;
  !removed

let iter t f =
  for s = t.head_seq to t.tail_seq - 1 do
    f (get t s)
  done

let in_flight t e =
  contains t e.seq
  &&
  match t.slots.(e.seq mod t.size) with
  | Some x -> x == e
  | None -> false

let set_state t e state =
  if not (in_flight t e) then invalid_arg "Rob.set_state: entry not in flight";
  let from = queue_of e.state and into = queue_of state in
  if from <> into then dequeue t e;
  e.state <- state;
  if from <> into then enqueue t e

(* Walk queue [q] oldest first.  [f] may move the visited entry out of
   [q] or truncate the window behind it ([squash_after]): the walk
   then resumes at the visited entry's old successor if that is still
   in [q], and stops otherwise. *)
let iter_queue t q f =
  let rec go slot =
    if slot >= 0 then begin
      let e = at t slot in
      let succ = t.next.(slot) in
      f e;
      if queue_of e.state = q then go t.next.(slot)
      else if succ >= 0 then
        match t.slots.(succ) with
        | Some n when queue_of n.state = q -> go succ
        | Some _ | None -> ()
    end
  in
  go t.first.(q)

let iter_waiting t f = iter_queue t waiting_q f
let iter_exec t f = iter_queue t executing_q f

let shift_executing t ~by =
  iter_exec t (fun e ->
      match e.state with
      | Executing d -> e.state <- Executing (d + by)
      | Waiting | Done -> ())

let exists_older t seq p =
  let rec go s = s < min seq t.tail_seq && s >= t.head_seq && (p (get t s) || go (s + 1)) in
  go t.head_seq

let fold_older t seq f init =
  let acc = ref init in
  for s = t.head_seq to min seq t.tail_seq - 1 do
    if s < seq then acc := f !acc (get t s)
  done;
  !acc

let head_seq t = t.head_seq

(* Checkpoint restore: overwrite the whole window.  Entries must be
   consecutive by seq starting at [head_seq] (the caller rebuilt them
   from a serialized snapshot); emits nothing — checkpointing is an
   untraced-run facility. *)
let restore t ~head_seq entries =
  if List.length entries > t.size then invalid_arg "Rob.restore: too many entries";
  Array.fill t.slots 0 t.size None;
  Array.fill t.first 0 2 (-1);
  Array.fill t.last 0 2 (-1);
  t.head_seq <- head_seq;
  t.tail_seq <- head_seq;
  List.iter
    (fun e ->
      if e.seq <> t.tail_seq then invalid_arg "Rob.restore: non-consecutive seq";
      t.slots.(e.seq mod t.size) <- Some e;
      t.tail_seq <- t.tail_seq + 1;
      enqueue t e)
    entries
