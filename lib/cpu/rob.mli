(** The reorder buffer.

    A circular buffer of in-flight instructions indexed by a global
    sequence number ([seq]); slot = [seq mod size].  Instructions
    dispatch at the tail, execute out of order, and commit in order
    from the head.  A branch misprediction squashes every entry
    younger than the branch.

    Nothing in the ROB allocates after {!create}: each slot holds one
    preallocated entry record, with fixed-size arrays for its sources
    and its branch rename checkpoint, and every dispatch into the slot
    resets and reuses it.  Execution state, fence wait conditions and
    memory levels are immediates, and the walks below are loops over
    slot indices, so an untraced simulated cycle allocates nothing
    here.

    Beside the window, the ROB keeps state up to date so that no
    per-cycle stage has to rescan it:

    - {b State queues.}  Oldest-first queues of the [Waiting] and of
      the [Executing] entries.  A full ROB behind a fence or a long
      miss is mostly [Done] entries that no stage can act on, so issue
      walks the waiting queue and the completion phases and branch
      resolution walk the executing queue (see {!section-walks}).
    - {b Wait links.}  Issue may {!park} a [Waiting] entry that cannot
      issue before one specific older entry is [Done] (an operand
      producer, a fence that blocks loads, or the older access a load
      must not pass).  A parked entry leaves the waiting queue, so
      issue stops re-checking it.  It stays parked while its blocker
      issues, the way a scoreboard holds a consumer until its
      producer's writeback: the blocker turning [Done]
      ({!set_state}), leaving the window ({!pop_head},
      {!squash_after}) or, while still [Waiting], being given its
      address ({!set_addr}) wakes it back into the queue, where a walk
      still in progress visits it.  Parking is a cache of what the
      next issue walk would find: {!restore} and {!squash_after} leave
      nothing parked on a removed entry, and checkpoints never record
      it.
    - {b Completion bounds.}  A lower bound on the [done_at] of the
      [Executing] loads ({!load_due}) and one for the [Executing] CAS
      ({!cas_due}), so a completion phase with nothing due returns
      without walking.
    - {b Access sets.}  The loads and CAS not yet [Done]
      ({!oldest_read}), the stores and CAS not yet [Done]
      ({!oldest_store}) — each over all entries and per FSB column,
      the paper's FSB bits on ROB entries — and the stores and CAS
      whose address is unknown ({!oldest_unknown_addr}).  A fence or a
      disambiguation check compares one seq per column with the oldest
      member instead of walking the window.  Each set keeps a
      low-water mark that moves forward, when asked, past members
      that have left.

    Queue and set membership is a function of an entry's [instr],
    [state], [addr] and [scope_mask], so the rule is: after an entry is
    dispatched, only {!set_state} and {!set_executing} may change its
    [state] (and, with {!shift_executing}, its [done_at]), only
    {!set_addr} its [addr], and nothing its [scope_mask]; the same
    calls keep the wait links and the completion bounds.  {!dispatch},
    {!pop_head}, {!squash_after} and {!restore} keep every queue and
    set in step with the window.

    Each entry carries the paper's per-entry fence scope bits
    ([scope_mask]) and, for fences, the wait condition captured from
    the {!Fscope_core.Scope_unit} at dispatch. *)

(** {1 Entries}

    Every slot holds one entry record, allocated with the ROB and
    reused by every dispatch into the slot ({!fresh}): a record
    handle names a slot, and the entry's [seq] says which instruction
    the slot holds now.  Code that keeps a handle across a dispatch
    must keep the seq beside it and ask {!in_flight}. *)

type exec_state =
  | Waiting  (** operands not ready or structural/ordering hazard *)
  | Executing  (** issued; completes at [done_at] *)
  | Done

type mem_level =
  | Unserved  (** forwarded, or not issued to the memory port *)
  | L1  (** an L1 hit *)
  | L2  (** an L2 hit *)
  | Main  (** an L2 miss *)

val served : Fscope_obs.Event.mem_outcome -> mem_level
(** The level that served an access the memory port answered. *)

val wait_none : int
(** The [fence_wait] of an entry that is not a fence. *)

type entry = {
  slot : int;  (** the slot this record belongs to *)
  mutable seq : int;  (** set by {!fresh} *)
  mutable pc : int;  (** set by {!fresh} *)
  mutable instr : Fscope_isa.Instr.t;  (** set by {!fresh} *)
  mutable state : exec_state;  (** write through {!set_state} / {!set_executing} only *)
  mutable done_at : int;
      (** [Executing]: the completion cycle.  Written by {!fresh},
          {!set_executing} and {!shift_executing} only. *)
  mutable n_srcs : int;  (** write through {!add_src} only *)
  slot_src_seq : int array;
      (** [max_srcs] slots: per source, in the order execution reads
          them, the producer's seq or -1 (the architectural file).
          Write through {!add_src} only; read with {!src_producer}. *)
  slot_src_reg : Fscope_isa.Reg.t array;  (** the sources' registers; read with {!src_reg} *)
  mutable result : int;  (** dst value: load data, ALU result, CAS success bit *)
  mutable addr : int;
      (** memory address once computed; -1 = unknown.  Write through
          {!set_addr} once dispatched. *)
  mutable data : int;  (** store data / CAS desired value *)
  mutable data2 : int;  (** CAS expected value *)
  mutable scope_mask : Fscope_core.Fsb.mask;  (** fixed before {!dispatch} *)
  mutable fence_wait : int;
      (** fences: the wait condition from
          {!Fscope_core.Scope_unit.fence_scope} — a scope mask, or
          {!Fscope_core.Scope_unit.wait_global}; {!wait_none} for every
          other entry *)
  mutable fence_issued : bool;
  mutable fence_cid : int;
      (** fences: the class id the fence was decoded under, or -1 —
          per-scope stall attribution *)
  mutable mem_level : mem_level;
      (** loads/CAS: the level serving the in-flight access (set at
          issue) *)
  mutable predicted_taken : bool;
  mutable has_cp : bool;  (** branches: a rename checkpoint is held; write through {!save_rename} *)
  slot_rename : int array;
      (** the rename snapshot ([Reg.count] producers); touch only
          through {!save_rename}, {!load_rename}, {!rename_producer} *)
}

type t

val create :
  ?trace:Fscope_obs.Trace.t -> ?core:int -> size:int -> columns:int -> unit -> t
(** [columns] is the number of FSB columns (0..62); every dispatched
    entry's [scope_mask] must lie within them.  Allocates every slot's
    entry.  When [trace] is live, [dispatch] and [pop_head] emit
    [Rob_dispatch] / [Rob_commit] events for [core].  Defaults to the
    disabled {!Fscope_obs.Trace.null}. *)

val size : t -> int
val count : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val next_seq : t -> int
(** The seq the next dispatched entry must carry. *)

val fresh :
  t ->
  seq:int ->
  state:exec_state ->
  done_at:int ->
  addr:int ->
  pc:int ->
  instr:Fscope_isa.Instr.t ->
  entry
(** The tail slot's entry, reset for [seq] in [state] (and [done_at])
    with [addr] (-1 = unknown), no sources and every other field at
    its default.  It is not in flight until {!dispatch}.  Allocates
    nothing.  Raises [Invalid_argument] if the ROB is full or [seq] is
    not [next_seq]. *)

val add_src : entry -> reg:Fscope_isa.Reg.t -> producer:int -> unit
(** Append a source (before {!dispatch}): its register and its
    producer's seq, -1 for the architectural file.  Raises
    [Invalid_argument] beyond three (a CAS reads base, expected and
    desired). *)

val src_reg : entry -> int -> Fscope_isa.Reg.t
val src_producer : entry -> int -> int

val save_rename : entry -> int array -> unit
(** Take the branch's rename checkpoint: copy the map (producer seq per
    register index, -1 = architectural) into the entry. *)

val load_rename : entry -> int array -> unit
(** Copy the entry's checkpoint back into a rename map.  Raises
    [Invalid_argument] if it holds none. *)

val rename_producer : entry -> int -> int
(** One register's producer in the checkpoint. *)

val dispatch : t -> entry -> unit
(** Append the {!fresh} entry at the tail (and to the queue it belongs
    to).  Raises [Invalid_argument] if it is not the fresh tail entry
    or if its [scope_mask] has a bit beyond [columns]. *)

val in_flight : t -> entry -> int -> bool
(** [in_flight t e seq]: is [e] in flight as the entry with seq [seq]?
    A popped or squashed record is reused for a younger seq, so the
    record alone does not say. *)

val set_state : t -> entry -> exec_state -> unit
(** Move an in-flight entry to [Waiting] or [Done], between the
    queues.  An entry turning [Done] wakes every entry parked on it;
    one that goes back to [Waiting] keeps them.  Raises
    [Invalid_argument] if the entry is not in flight, and for
    [Executing] (use {!set_executing}). *)

val set_executing : t -> entry -> done_at:int -> unit
(** Issue an in-flight entry: it is [Executing] until [done_at].  What
    is parked on it stays parked.  Lowers {!load_due} or {!cas_due} to
    [done_at] for a load or CAS, also when the entry was already
    [Executing]. *)

val set_addr : t -> entry -> int -> unit
(** Set an in-flight entry's [addr].  Giving a [Waiting] entry its
    first address wakes every entry parked on it (a load parked behind
    a store or CAS whose address was unknown).  Raises
    [Invalid_argument] if the entry is not in flight. *)

val park : t -> entry -> blocker:int -> unit
(** [park t e ~blocker]: take the [Waiting] entry [e] out of the
    waiting queue until the older in-flight entry with seq [blocker]
    turns [Done], leaves the window or, if it is [Waiting] with an
    unknown address, is given one.  Only park an entry that no issue
    walk could act on before then.  The pipeline issues after the
    completion phases of the same cycle, so an [Executing] blocker
    completes in a later cycle than the walk that parks on it.
    Allocates nothing.  Raises [Invalid_argument] unless [e] is in
    flight, [Waiting] and not parked, and [blocker] is older, in
    flight and not [Done]. *)

val parked_on : t -> entry -> int
(** The seq [e] is parked on, or -1.  Raises [Invalid_argument] if the
    entry is not in flight. *)

val contains : t -> int -> bool
(** Is [seq] currently in flight? *)

val get : t -> int -> entry
(** Entry by seq.  Raises [Invalid_argument] if not in flight. *)

val head : t -> entry
(** The oldest in-flight entry, when not {!is_empty}. *)

val head_seq : t -> int
(** The seq of the oldest in-flight entry (= the next to commit). *)

val pop_head : t -> entry
(** Commit the head.  Raises [Invalid_argument] if empty.  The record
    stays readable until the next {!fresh} reuses its slot. *)

val squash_after : t -> int -> ('a -> entry -> unit) -> 'a -> unit
(** [squash_after t seq release x] removes every entry with a seq
    strictly greater than [seq], then calls [release x e] on each,
    oldest first, so the caller can release their side state. *)

val iter : t -> (entry -> unit) -> unit
(** All in-flight entries, oldest first. *)

(** {1:walks Queue walks}

    The [Waiting] entries that are not parked, and the [Executing]
    entries, each form an oldest-first queue of slots.  A walk is a
    loop over slots, with no closure:
    {[
      let rec walk t slot =
        if slot >= 0 then begin
          let e = Rob.slot_entry t slot and prev = Rob.queue_prev t slot in
          visit e;
          walk t (Rob.queue_next t q slot prev)
        end
      in
      walk t (Rob.queue_first t q)
    ]}
    The visit may move the visited entry to another state, may
    {!park} it and may call {!squash_after} on it; it must change no
    other entry's state and must not dispatch.  Entries removed by a
    squash are not visited; entries woken into the waiting queue by
    the visited entry (all younger than it) are. *)

val waiting_q : int
val executing_q : int

val queue_first : t -> int -> int
(** The slot of the queue's oldest entry, or -1. *)

val slot_entry : t -> int -> entry

val queue_prev : t -> int -> int
(** The slot before [slot] in its queue; read it before the visit. *)

val queue_next : t -> int -> int -> int -> int
(** [queue_next t q slot prev]: the slot to visit after [slot], or -1. *)

val shift_executing : t -> by:int -> unit
(** Add [by] to the completion cycle of every [Executing] entry (the
    closed-form spin replay's time shift) and to the completion
    bounds.  Leaves every queue and wait link as it is. *)

val load_due : t -> int
(** A lower bound on the [done_at] of every [Executing] load;
    [max_int] when there is none to wait for.  No load completes
    before it. *)

val cas_due : t -> int
(** The same for the [Executing] CAS. *)

val set_load_due : t -> int -> unit
(** [set_load_due t d], at the end of a walk of the executing queue:
    [d] is the earliest [done_at] of the loads still [Executing]
    ([max_int] for none).  A larger [d] would hide a completion. *)

val set_cas_due : t -> int -> unit
(** The same for the CAS. *)

val exists_older : t -> int -> ('a -> entry -> bool) -> 'a -> bool
(** [exists_older t seq p x]: does any in-flight entry [e] older than
    [seq] satisfy [p x e]?  Oldest first; allocates nothing when [p]
    is a top-level function. *)

val youngest_older : t -> int -> ('a -> entry -> bool) -> 'a -> int
(** [youngest_older t seq p x]: the seq of the youngest in-flight
    entry older than [seq] that satisfies [p x], or -1. *)

val all_columns : int
(** The column argument that selects every entry, whatever its scope
    bits. *)

val oldest_read : t -> int -> int
(** [oldest_read t col]: the seq of the oldest in-flight load or CAS
    not yet [Done] whose [scope_mask] has column [col] set (any, for
    {!all_columns}); [max_int] if there is none.  Amortized O(1).
    Raises [Invalid_argument] for a column outside [0, columns). *)

val oldest_store : t -> int -> int
(** The same for stores (any state) and CAS not yet [Done]: the
    accesses that have not reached the store buffer. *)

val oldest_unknown_addr : t -> int
(** The seq of the oldest in-flight store or CAS whose [addr] is still
    unknown; [max_int] if there is none.  Amortized O(1). *)

val restore : t -> head_seq:int -> 'a list -> ('a -> entry) -> unit
(** Checkpoint restore: empty the window at [head_seq], then for each
    item, oldest first, append the entry [build item] returns — a
    {!fresh} entry for the next seq, filled in.  Nothing is parked
    afterwards, and the completion bounds are those of the appended
    entries.  Emits no events.  Raises [Invalid_argument] for a
    negative [head_seq], more items than slots, or an entry
    {!dispatch} would refuse. *)
