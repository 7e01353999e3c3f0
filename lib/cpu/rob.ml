module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg

type exec_state =
  | Waiting
  | Executing
  | Done

type mem_level =
  | Unserved
  | L1
  | L2
  | Main

let served : Fscope_obs.Event.mem_outcome -> mem_level = function
  | Fscope_obs.Event.L1_hit -> L1
  | Fscope_obs.Event.L2_hit -> L2
  | Fscope_obs.Event.L2_miss -> Main

let max_srcs = 3
let wait_none = -2

type entry = {
  slot : int;
  mutable seq : int;
  mutable pc : int;
  mutable instr : Instr.t;
  mutable state : exec_state;
  mutable done_at : int;
  mutable n_srcs : int;
  slot_src_seq : int array;
  slot_src_reg : Reg.t array;
  mutable result : int;
  mutable addr : int;
  mutable data : int;
  mutable data2 : int;
  mutable scope_mask : Fscope_core.Fsb.mask;
  mutable fence_wait : int;
  mutable fence_issued : bool;
  mutable fence_cid : int;
  mutable mem_level : mem_level;
  mutable predicted_taken : bool;
  mutable has_cp : bool;
  slot_rename : int array;
}

(* A slot's record before its first dispatch: seq -1 is never in
   flight (restore refuses a negative head seq). *)
let blank slot =
  {
    slot;
    seq = -1;
    pc = 0;
    instr = Instr.Nop;
    state = Done;
    done_at = 0;
    n_srcs = 0;
    slot_src_seq = Array.make max_srcs (-1);
    slot_src_reg = Array.make max_srcs Reg.zero;
    result = 0;
    addr = -1;
    data = 0;
    data2 = 0;
    scope_mask = Fscope_core.Fsb.empty;
    fence_wait = wait_none;
    fence_issued = false;
    fence_cid = -1;
    mem_level = Unserved;
    predicted_taken = false;
    has_cp = false;
    slot_rename = Array.make Reg.count (-1);
  }

(* The window is a circular buffer of slots ([seq mod size]), each
   holding one preallocated entry record that every dispatch into the
   slot resets and reuses; the head's slot is kept beside its seq, so
   no lookup divides.  Beside it, the [Waiting] entries that are
   not parked and the [Executing] entries each form an oldest-first
   doubly linked queue threaded through the per-slot [next]/[prev]
   arrays; [first.(q)]/[last.(q)] are the ends of queue [q] (slot
   indices, -1 = none).  An entry's [state] (and whether it is parked)
   alone says which queue holds it, which is why only [set_state] may
   change it.

   A [Waiting] entry may instead be parked on an older entry that is
   not [Done] yet and that it cannot issue before: [wait_on.(slot)] is
   then the blocker's slot (-1 = not parked) and the entry sits on the
   blocker's waiter list, which starts at [wait_first.(blocker)] and is
   threaded through the same [next]/[prev] arrays (a parked entry is in
   neither queue).  The list stays with the blocker's slot while it
   issues; the blocker turning [Done], leaving the window, or being
   given its address while still [Waiting] wakes the waiters back into
   the waiting queue.

   [load_due] and [cas_due] are lower bounds on the [done_at] of the
   [Executing] loads and of the [Executing] CAS ([max_int]: none), so
   a completion phase can tell that nothing is due without walking.
   Entering [Executing] or a new [done_at] lowers them; the completion
   walks raise them back to the exact minimum they see.

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
  entries : entry array;
  mutable head_seq : int;
  mutable head_slot : int;
  mutable tail_seq : int;
  next : int array;
  prev : int array;
  first : int array;
  last : int array;
  wait_on : int array;
  wait_first : int array;
  low : int array;
  mutable load_due : int;
  mutable cas_due : int;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let waiting_q = 0
let executing_q = 1

let queue_of = function
  | Waiting -> waiting_q
  | Executing -> executing_q
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
    entries = Array.init size blank;
    head_seq = 0;
    head_slot = 0;
    tail_seq = 0;
    next = Array.make size (-1);
    prev = Array.make size (-1);
    first = [| -1; -1 |];
    last = [| -1; -1 |];
    wait_on = Array.make size (-1);
    wait_first = Array.make size (-1);
    low = Array.make (reads_a columns) 0;
    load_due = max_int;
    cas_due = max_int;
    trace;
    core;
  }

let at t slot = Array.unsafe_get t.entries slot

(* The slot of [seq], for a seq no more than [size] past the head. *)
let slot_of t seq =
  let s = t.head_slot + (seq - t.head_seq) in
  if s >= t.size then s - t.size else s

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

(* Move [e] out of its state queue (or off its blocker's list); what is
   parked on [e] stays parked. *)
let dequeue t e =
  let slot = e.slot in
  match e.state with
  | Waiting -> if t.wait_on.(slot) >= 0 then unpark t slot else unlink t waiting_q slot
  | Executing -> unlink t executing_q slot
  | Done -> ()

(* [e] is [Executing] until [done_at]: lower the completion bound of
   its kind. *)
let note_due t e =
  match e.instr with
  | Instr.Load _ -> if e.done_at < t.load_due then t.load_due <- e.done_at
  | Instr.Cas _ -> if e.done_at < t.cas_due then t.cas_due <- e.done_at
  | _ -> ()

let enqueue t e =
  match e.state with
  | Waiting -> link t waiting_q e.slot
  | Executing ->
    link t executing_q e.slot;
    note_due t e
  | Done -> ()

(* [e] leaves the window. *)
let remove t e =
  dequeue t e;
  wake t e.slot

(* Is [e] in access set [a]?  Reads sets have odd indices, stores sets
   even ones. *)
let member a e =
  if a = unknown_a then
    match e.instr with
    | Instr.Store _ | Instr.Cas _ -> e.addr < 0
    | _ -> false
  else
    let col = ((a - 1) / 2) - 1 in
    (col < 0 || e.scope_mask land (1 lsl col) <> 0)
    &&
    match e.instr with
    | Instr.Load _ -> a land 1 = 1 && e.state <> Done
    | Instr.Store _ -> a land 1 = 0
    | Instr.Cas _ -> e.state <> Done
    | _ -> false

(* Some entry may have (re)joined an access set at [seq]. *)
let lower t seq =
  for a = 0 to Array.length t.low - 1 do
    if t.low.(a) > seq then t.low.(a) <- seq
  done

let instr_class (i : Instr.t) : Fscope_obs.Event.instr_class =
  match i with
  | Instr.Load _ -> Fscope_obs.Event.Load
  | Instr.Store _ -> Fscope_obs.Event.Store
  | Instr.Cas _ -> Fscope_obs.Event.Cas
  | Instr.Fence _ -> Fscope_obs.Event.Fence
  | Instr.Branch _ -> Fscope_obs.Event.Branch
  | Instr.Jump _ -> Fscope_obs.Event.Jump
  | Instr.Li _ | Instr.Alu _ | Instr.Tid _ -> Fscope_obs.Event.Alu
  | Instr.Nop | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt -> Fscope_obs.Event.Other

let size t = t.size
let count t = t.tail_seq - t.head_seq
let is_full t = count t >= t.size
let is_empty t = count t = 0
let next_seq t = t.tail_seq

let fresh t ~seq ~state ~done_at ~addr ~pc ~instr =
  if is_full t then invalid_arg "Rob.fresh: full";
  if seq <> t.tail_seq then invalid_arg "Rob.fresh: wrong seq";
  let e = at t (slot_of t seq) in
  e.seq <- seq;
  e.pc <- pc;
  e.instr <- instr;
  e.state <- state;
  e.done_at <- done_at;
  e.n_srcs <- 0;
  e.result <- 0;
  e.addr <- addr;
  e.data <- 0;
  e.data2 <- 0;
  e.scope_mask <- Fscope_core.Fsb.empty;
  e.fence_wait <- wait_none;
  e.fence_issued <- false;
  e.fence_cid <- -1;
  e.mem_level <- Unserved;
  e.predicted_taken <- false;
  e.has_cp <- false;
  e

let add_src e ~reg ~producer =
  if e.n_srcs >= max_srcs then invalid_arg "Rob.add_src: too many sources";
  e.slot_src_reg.(e.n_srcs) <- reg;
  e.slot_src_seq.(e.n_srcs) <- producer;
  e.n_srcs <- e.n_srcs + 1

let src_reg e i = e.slot_src_reg.(i)
let src_producer e i = e.slot_src_seq.(i)

let save_rename e rename =
  Array.blit rename 0 e.slot_rename 0 (Array.length e.slot_rename);
  e.has_cp <- true

let load_rename e rename =
  if not e.has_cp then invalid_arg "Rob.load_rename: no checkpoint";
  Array.blit e.slot_rename 0 rename 0 (Array.length e.slot_rename)

let rename_producer e r = e.slot_rename.(r)

(* Append the fresh tail entry to the window and its queue. *)
let append t e =
  if e.seq <> t.tail_seq || is_full t || at t (slot_of t e.seq) != e then
    invalid_arg "Rob.dispatch: not the fresh tail entry";
  if e.scope_mask lsr t.columns <> 0 then invalid_arg "Rob.dispatch: scope bit out of range";
  t.tail_seq <- t.tail_seq + 1;
  enqueue t e

let dispatch t e =
  append t e;
  if Fscope_obs.Trace.records t.trace then
    Fscope_obs.Trace.rob_dispatch t.trace ~core:t.core ~pc:e.pc ~cls:(instr_class e.instr)

let contains t seq = seq >= t.head_seq && seq < t.tail_seq

let get t seq =
  if not (contains t seq) then invalid_arg "Rob.get: seq not in flight";
  at t (slot_of t seq)

let head_seq t = t.head_seq
let head t = at t t.head_slot

let pop_head t =
  if is_empty t then invalid_arg "Rob.pop_head: empty";
  let e = head t in
  remove t e;
  t.head_seq <- t.head_seq + 1;
  t.head_slot <- (if t.head_slot + 1 = t.size then 0 else t.head_slot + 1);
  if Fscope_obs.Trace.records t.trace then
    Fscope_obs.Trace.rob_commit t.trace ~core:t.core ~pc:e.pc ~cls:(instr_class e.instr);
  e

let squash_after t seq release x =
  let stop = Int.max (seq + 1) t.head_seq in
  for s = t.tail_seq - 1 downto stop do
    remove t (get t s)
  done;
  (* release oldest first, once the window no longer holds them *)
  let old_tail = t.tail_seq in
  if stop < t.tail_seq then t.tail_seq <- stop;
  lower t t.tail_seq;
  for s = stop to old_tail - 1 do
    release x (at t (slot_of t s))
  done

let in_flight t e seq = e.seq = seq && contains t seq && at t (slot_of t seq) == e

let set_state t e state =
  if not (in_flight t e e.seq) then invalid_arg "Rob.set_state: entry not in flight";
  if state = Executing then invalid_arg "Rob.set_state: use set_executing";
  let was = e.state in
  let moves = queue_of was <> queue_of state in
  if moves then dequeue t e;
  e.state <- state;
  if moves then enqueue t e;
  if state = Done && was <> Done then wake t e.slot;
  if was = Done && state = Waiting then lower t e.seq

let set_executing t e ~done_at =
  if not (in_flight t e e.seq) then invalid_arg "Rob.set_executing: entry not in flight";
  let moves = e.state <> Executing in
  let rejoins = e.state = Done in
  if moves then dequeue t e;
  e.state <- Executing;
  e.done_at <- done_at;
  if moves then enqueue t e else note_due t e;
  if rejoins then lower t e.seq

let set_addr t e addr =
  if not (in_flight t e e.seq) then invalid_arg "Rob.set_addr: entry not in flight";
  let rejoins = e.addr >= 0 && addr < 0 in
  let wakes = e.addr < 0 && addr >= 0 && e.state = Waiting in
  e.addr <- addr;
  if wakes then wake t e.slot;
  if rejoins then lower t e.seq

let park t e ~blocker =
  if not (in_flight t e e.seq) then invalid_arg "Rob.park: entry not in flight";
  let slot = e.slot and b = slot_of t blocker in
  if
    blocker >= e.seq
    || (not (contains t blocker))
    || t.wait_on.(slot) >= 0
    || e.state <> Waiting
    || (at t b).state = Done
  then invalid_arg "Rob.park: needs a Waiting entry and an older blocker not Done";
  unlink t waiting_q slot;
  t.wait_on.(slot) <- b;
  let n = t.wait_first.(b) in
  t.prev.(slot) <- -1;
  t.next.(slot) <- n;
  if n >= 0 then t.prev.(n) <- slot;
  t.wait_first.(b) <- slot

let parked_on t e =
  if not (in_flight t e e.seq) then invalid_arg "Rob.parked_on: entry not in flight";
  let b = t.wait_on.(e.slot) in
  if b < 0 then -1 else (at t b).seq

(* Queue walks.  A walk visits queue [q] oldest first by slot; the
   visit may move the visited entry out of [q] (waking younger entries
   into it) and may truncate the window behind it ([squash_after]).
   The walk goes on at the oldest entry of [q] younger than the visited
   one: the visited entry's queue successor when it stayed, else the
   successor of its queue predecessor from before the visit, so an
   entry woken during the visit is still visited. *)
let queue_first t q = t.first.(q)
let slot_entry = at
let queue_prev t slot = t.prev.(slot)

let queue_next t q slot prev =
  let e = at t slot in
  if queue_of e.state = q && t.wait_on.(slot) < 0 then t.next.(slot)
  else if prev < 0 then t.first.(q)
  else t.next.(prev)

let rec shift_from t by slot =
  if slot >= 0 then begin
    let e = at t slot in
    e.done_at <- e.done_at + by;
    shift_from t by t.next.(slot)
  end

let shift_executing t ~by =
  shift_from t by t.first.(executing_q);
  if t.load_due <> max_int then t.load_due <- t.load_due + by;
  if t.cas_due <> max_int then t.cas_due <- t.cas_due + by

let load_due t = t.load_due
let cas_due t = t.cas_due
let set_load_due t d = t.load_due <- d
let set_cas_due t d = t.cas_due <- d

let rec iter_from t f s = if s < t.tail_seq then (f (at t (slot_of t s)); iter_from t f (s + 1))
let iter t f = iter_from t f t.head_seq

let rec exists_from t stop p x s =
  s < stop && (p x (at t (slot_of t s)) || exists_from t stop p x (s + 1))

let exists_older t seq p x = exists_from t (Int.min seq t.tail_seq) p x t.head_seq

let rec youngest_from t p x s =
  if s < t.head_seq then -1 else if p x (at t (slot_of t s)) then s else youngest_from t p x (s - 1)

let youngest_older t seq p x = youngest_from t p x (Int.min seq t.tail_seq - 1)

(* The oldest member of access set [a], advancing its mark past the
   entries that are not (or no longer) members. *)
let rec oldest_from t a s =
  if s >= t.tail_seq then begin
    t.low.(a) <- s;
    max_int
  end
  else if member a (at t (slot_of t s)) then begin
    t.low.(a) <- s;
    s
  end
  else oldest_from t a (s + 1)

let oldest t a = oldest_from t a (Int.max t.low.(a) t.head_seq)

let check_column t col =
  if col < all_columns || col >= t.columns then invalid_arg "Rob: column out of range"

let oldest_read t col =
  check_column t col;
  oldest t (reads_a col)

let oldest_store t col =
  check_column t col;
  oldest t (stores_a col)

let oldest_unknown_addr t = oldest t unknown_a

(* Checkpoint restore: empty the window at [head_seq], then append the
   entries [build] fills in, one per item, oldest first (each from
   {!fresh}); emits nothing — checkpointing is an untraced-run
   facility.  Nothing is parked afterwards: parking is a cache the
   next issue walk rebuilds.  The completion bounds start over from
   the appended [Executing] entries. *)
let restore t ~head_seq items build =
  if head_seq < 0 then invalid_arg "Rob.restore: negative head seq";
  if List.length items > t.size then invalid_arg "Rob.restore: too many entries";
  Array.fill t.first 0 2 (-1);
  Array.fill t.last 0 2 (-1);
  Array.fill t.wait_on 0 t.size (-1);
  Array.fill t.wait_first 0 t.size (-1);
  Array.fill t.low 0 (Array.length t.low) head_seq;
  t.load_due <- max_int;
  t.cas_due <- max_int;
  t.head_seq <- head_seq;
  t.head_slot <- head_seq mod t.size;
  t.tail_seq <- head_seq;
  List.iter (fun x -> append t (build x)) items
