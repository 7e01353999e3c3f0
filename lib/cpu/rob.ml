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
   it, the [Waiting] entries that are not parked and the [Executing]
   entries each form an oldest-first doubly linked queue threaded
   through the per-slot [next]/[prev] arrays; [first.(q)]/[last.(q)]
   are the ends of queue [q] (slot indices, -1 = none).  An entry's
   [state] (and whether it is parked) alone says which queue holds it,
   which is why only [set_state] may change it.

   A [Waiting] entry may instead be parked on an older [Waiting] entry
   it cannot issue before: [wait_on.(slot)] is then the blocker's slot
   (-1 = not parked) and the entry sits on the blocker's waiter list,
   which starts at [wait_first.(blocker)] and is threaded through the
   same [next]/[prev] arrays (a parked entry is in neither queue).
   Leaving [Waiting] wakes the waiters back into the waiting queue.

   The access sets — stores and CAS with an unknown address, and per
   FSB column (or over all entries) the loads and CAS not yet [Done]
   and the stores and CAS not yet [Done] — are kept as low-water marks:
   no member of set [a] is older than [low.(a)].  An entry joins a set
   only at dispatch, where it is the youngest, so a mark only moves
   forward, lazily, when its oldest member is asked for, and passes
   each entry once.  Membership is a function of an entry's [instr],
   [state], [addr] and [scope_mask]; a change that would make an entry
   rejoin a set (leaving [Done], forgetting an address — the pipeline
   makes neither) moves the marks back to it, and a squash pulls them
   back to the new tail. *)
type t = {
  size : int;
  columns : int;
  slots : entry option array;
  mutable head_seq : int;
  mutable tail_seq : int;
  next : int array;
  prev : int array;
  first : int array;
  last : int array;
  wait_on : int array;
  wait_first : int array;
  low : int array;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let waiting_q = 0
let executing_q = 1

let queue_of = function
  | Waiting -> waiting_q
  | Executing _ -> executing_q
  | Done -> -1

(* Access sets: [unknown_a], then per column [col] (or every entry for
   [all_columns]) a reads set and a stores set. *)
let all_columns = -1
let unknown_a = 0
let reads_a col = 1 + (2 * (col + 1))
let stores_a col = 2 + (2 * (col + 1))

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) ~size ~columns () =
  if size <= 0 then invalid_arg "Rob.create: size must be positive";
  if columns < 0 || columns > 62 then invalid_arg "Rob.create: columns must be in 0..62";
  {
    size;
    columns;
    slots = Array.make size None;
    head_seq = 0;
    tail_seq = 0;
    next = Array.make size (-1);
    prev = Array.make size (-1);
    first = [| -1; -1 |];
    last = [| -1; -1 |];
    wait_on = Array.make size (-1);
    wait_first = Array.make size (-1);
    low = Array.make (reads_a columns) 0;
    trace;
    core;
  }

let at t slot =
  match t.slots.(slot) with
  | Some e -> e
  | None -> assert false

(* Insert [slot] into queue [q] in seq order, searching back from
   [from]: a slot of [q] with every entry after it younger than
   [slot]'s, or -1 for none.  [link] starts at the young end, where
   dispatch appends and an issuing entry usually lands. *)
let rec older_than t seq s = if s < 0 || (at t s).seq < seq then s else older_than t seq t.prev.(s)

let link_from t q slot from =
  let p = older_than t (at t slot).seq from in
  let n = if p < 0 then t.first.(q) else t.next.(p) in
  t.prev.(slot) <- p;
  t.next.(slot) <- n;
  if p < 0 then t.first.(q) <- slot else t.next.(p) <- slot;
  if n < 0 then t.last.(q) <- slot else t.prev.(n) <- slot

let link t q slot = link_from t q slot t.last.(q)

let unlink t q slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  if p < 0 then t.first.(q) <- n else t.next.(p) <- n;
  if n < 0 then t.last.(q) <- p else t.prev.(n) <- p

(* Wake every entry parked on [slot] back into the waiting queue.  Each
   waiter is younger than [slot]; the previous waiter woken bounds the
   search for the next one when it is younger. *)
let rec wake_from t w hint =
  if w >= 0 then begin
    let n = t.next.(w) in
    t.wait_on.(w) <- -1;
    let from =
      if hint >= 0 && (at t hint).seq > (at t w).seq then hint else t.last.(waiting_q)
    in
    link_from t waiting_q w from;
    wake_from t n w
  end

let wake t slot =
  wake_from t t.wait_first.(slot) (-1);
  t.wait_first.(slot) <- -1

(* Take a parked [slot] off its blocker's waiter list. *)
let unpark t slot =
  let p = t.prev.(slot) and n = t.next.(slot) in
  if p < 0 then t.wait_first.(t.wait_on.(slot)) <- n else t.next.(p) <- n;
  if n >= 0 then t.prev.(n) <- p;
  t.wait_on.(slot) <- -1

(* Move [e] out of its state queue (or off its blocker's list), waking
   what is parked on it when it was [Waiting]. *)
let dequeue t e =
  let slot = e.seq mod t.size in
  match e.state with
  | Waiting ->
    if t.wait_on.(slot) >= 0 then unpark t slot else unlink t waiting_q slot;
    wake t slot
  | Executing _ -> unlink t executing_q slot
  | Done -> ()

let enqueue t e =
  let q = queue_of e.state in
  if q >= 0 then link t q (e.seq mod t.size)

let not_done e =
  match e.state with
  | Waiting | Executing _ -> true
  | Done -> false

(* Is [e] in access set [a]?  Reads sets have odd indices, stores sets
   even ones. *)
let member a e =
  if a = unknown_a then
    match e.instr with
    | Fscope_isa.Instr.Store _ | Fscope_isa.Instr.Cas _ -> e.addr < 0
    | _ -> false
  else
    let col = ((a - 1) / 2) - 1 in
    (col < 0 || e.scope_mask land (1 lsl col) <> 0)
    &&
    match e.instr with
    | Fscope_isa.Instr.Load _ -> a land 1 = 1 && not_done e
    | Fscope_isa.Instr.Store _ -> a land 1 = 0
    | Fscope_isa.Instr.Cas _ -> not_done e
    | _ -> false

(* Some entry may have (re)joined an access set at [seq]. *)
let lower t seq =
  for a = 0 to Array.length t.low - 1 do
    if t.low.(a) > seq then t.low.(a) <- seq
  done

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
  if entry.scope_mask lsr t.columns <> 0 then invalid_arg "Rob.dispatch: scope bit out of range";
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
  lower t t.tail_seq;
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
  let moves = queue_of e.state <> queue_of state in
  let rejoins =
    match (e.state, state) with
    | Done, (Waiting | Executing _) -> true
    | _, (Waiting | Executing _ | Done) -> false
  in
  if moves then dequeue t e;
  e.state <- state;
  if moves then enqueue t e;
  if rejoins then lower t e.seq

let set_addr t e addr =
  if not (in_flight t e) then invalid_arg "Rob.set_addr: entry not in flight";
  let rejoins = e.addr >= 0 && addr < 0 in
  e.addr <- addr;
  if rejoins then lower t e.seq

let park t e ~blocker =
  if not (in_flight t e) then invalid_arg "Rob.park: entry not in flight";
  let slot = e.seq mod t.size and b = blocker mod t.size in
  if
    blocker >= e.seq
    || (not (contains t blocker))
    || t.wait_on.(slot) >= 0
    || (match (e.state, (at t b).state) with
       | Waiting, Waiting -> false
       | _, (Waiting | Executing _ | Done) -> true)
  then invalid_arg "Rob.park: needs a Waiting entry and an older Waiting blocker";
  unlink t waiting_q slot;
  t.wait_on.(slot) <- b;
  let n = t.wait_first.(b) in
  t.prev.(slot) <- -1;
  t.next.(slot) <- n;
  if n >= 0 then t.prev.(n) <- slot;
  t.wait_first.(b) <- slot

let parked_on t e =
  if not (in_flight t e) then invalid_arg "Rob.parked_on: entry not in flight";
  let b = t.wait_on.(e.seq mod t.size) in
  if b < 0 then -1 else (at t b).seq

(* Walk queue [q] oldest first.  [f] may move the visited entry out of
   [q] (waking younger entries into it), and may truncate the window
   behind it ([squash_after]).  The walk goes on at the oldest entry
   of [q] younger than the visited one, found from the visited
   entry's queue predecessor when the visited entry left, so an entry
   woken during the walk is still visited. *)
let iter_queue t q f =
  let rec go slot =
    if slot >= 0 then begin
      let e = at t slot in
      let p = t.prev.(slot) in
      f e;
      if queue_of e.state = q && t.wait_on.(slot) < 0 then go t.next.(slot)
      else go (if p < 0 then t.first.(q) else t.next.(p))
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

(* The oldest member of access set [a], advancing its mark past the
   entries that are not (or no longer) members. *)
let rec oldest_from t a s =
  if s >= t.tail_seq then begin
    t.low.(a) <- s;
    max_int
  end
  else if member a (at t (s mod t.size)) then begin
    t.low.(a) <- s;
    s
  end
  else oldest_from t a (s + 1)

let oldest t a = oldest_from t a (max t.low.(a) t.head_seq)

let check_column t col =
  if col < all_columns || col >= t.columns then invalid_arg "Rob: column out of range"

let oldest_read t col =
  check_column t col;
  oldest t (reads_a col)

let oldest_store t col =
  check_column t col;
  oldest t (stores_a col)

let oldest_unknown_addr t = oldest t unknown_a
let head_seq t = t.head_seq

(* Checkpoint restore: overwrite the whole window.  Entries must be
   consecutive by seq starting at [head_seq] (the caller rebuilt them
   from a serialized snapshot); emits nothing — checkpointing is an
   untraced-run facility.  Nothing is parked afterwards: parking is a
   cache the next issue walk rebuilds. *)
let restore t ~head_seq entries =
  if List.length entries > t.size then invalid_arg "Rob.restore: too many entries";
  Array.fill t.slots 0 t.size None;
  Array.fill t.first 0 2 (-1);
  Array.fill t.last 0 2 (-1);
  Array.fill t.wait_on 0 t.size (-1);
  Array.fill t.wait_first 0 t.size (-1);
  Array.fill t.low 0 (Array.length t.low) head_seq;
  t.head_seq <- head_seq;
  t.tail_seq <- head_seq;
  List.iter
    (fun e ->
      if e.seq <> t.tail_seq then invalid_arg "Rob.restore: non-consecutive seq";
      if e.scope_mask lsr t.columns <> 0 then
        invalid_arg "Rob.restore: scope bit out of range";
      t.slots.(e.seq mod t.size) <- Some e;
      t.tail_seq <- t.tail_seq + 1;
      enqueue t e)
    entries
