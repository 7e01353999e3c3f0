(** The reorder buffer.

    A circular buffer of in-flight instructions indexed by a global
    sequence number ([seq]); slot = [seq mod size].  Instructions
    dispatch at the tail, execute out of order, and commit in order
    from the head.  A branch misprediction squashes every entry
    younger than the branch.

    Beside the window, the ROB keeps state up to date so that no
    per-cycle stage has to rescan it:

    - {b State queues.}  Oldest-first queues of the [Waiting] and of
      the [Executing] entries.  A full ROB behind a fence or a long
      miss is mostly [Done] entries that no stage can act on, so issue
      walks {!iter_waiting} and the completion phases and branch
      resolution walk {!iter_exec}.
    - {b Wait links.}  Issue may {!park} a [Waiting] entry that cannot
      issue before one specific older [Waiting] entry does (an operand
      producer, or a fence that blocks loads).  A parked entry leaves
      the waiting queue, so issue stops re-checking it; when its
      blocker leaves [Waiting], {!set_state} wakes it back into the
      queue, where a walk still in progress visits it.  Parking is a
      cache of what the next issue walk would find: {!restore} and
      {!squash_after} leave nothing parked on a removed entry, and
      checkpoints never record it.
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
    dispatched, only {!set_state} (and {!shift_executing}) may change
    its [state], only {!set_addr} its [addr], and nothing its
    [scope_mask].  {!dispatch}, {!pop_head}, {!squash_after} and
    {!restore} keep every queue and set in step with the window.

    Each entry carries the paper's per-entry fence scope bits
    ([scope_mask]) and, for fences, the wait condition captured from
    the {!Fscope_core.Scope_unit} at dispatch. *)

type producer =
  | Arch  (** value lives in the architectural register file *)
  | Rob of int  (** produced by the in-flight entry with this seq *)

type src = {
  producer : producer;
  reg : Fscope_isa.Reg.t;
}

type exec_state =
  | Waiting  (** operands not ready or structural/ordering hazard *)
  | Executing of int  (** issued; completes at the given cycle *)
  | Done

type entry = {
  seq : int;
  pc : int;
  instr : Fscope_isa.Instr.t;
  srcs : src array;  (** positional: the operands in the order execution reads them *)
  mutable state : exec_state;  (** write through {!set_state} only *)
  mutable result : int;  (** dst value: load data, ALU result, CAS success bit *)
  mutable addr : int;
      (** memory address once computed; -1 = unknown.  Write through
          {!set_addr} once dispatched. *)
  mutable data : int;  (** store data / CAS desired value *)
  mutable data2 : int;  (** CAS expected value *)
  mutable scope_mask : Fscope_core.Fsb.mask;  (** fixed before {!dispatch} *)
  mutable fence_wait : [ `Global | `Mask of Fscope_core.Fsb.mask ] option;
  mutable fence_issued : bool;
  mutable fence_cid : int;
      (** fences: the class id the fence was decoded under, or -1 —
          per-scope stall attribution *)
  mutable mem_level : Fscope_obs.Event.mem_outcome option;
      (** loads/CAS: the level serving the in-flight access (set at
          issue); [None] = forwarded or not issued *)
  mutable predicted_taken : bool;
  mutable checkpoint : producer array option;  (** rename snapshot, branches only *)
}

val make_entry :
  state:exec_state ->
  seq:int ->
  pc:int ->
  instr:Fscope_isa.Instr.t ->
  srcs:src array ->
  entry
(** A fresh entry in its dispatch-time [state], with an unknown
    [addr]. *)

type t

val create :
  ?trace:Fscope_obs.Trace.t -> ?core:int -> size:int -> columns:int -> unit -> t
(** [columns] is the number of FSB columns (0..62); every dispatched
    entry's [scope_mask] must lie within them.  When [trace] is live,
    [dispatch] and [pop_head] emit [Rob_dispatch] / [Rob_commit]
    events for [core].  Defaults to the disabled
    {!Fscope_obs.Trace.null}. *)

val size : t -> int
val count : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val next_seq : t -> int
(** The seq the next dispatched entry must carry. *)

val dispatch : t -> entry -> unit
(** Append at the tail (and to the queues it belongs to).  Raises
    [Invalid_argument] if full, if the entry's seq is not [next_seq]
    or if its [scope_mask] has a bit beyond [columns]. *)

val set_state : t -> entry -> exec_state -> unit
(** Change an in-flight entry's state, moving it between the
    queues.  An entry leaving [Waiting] wakes every entry parked on
    it.  Raises [Invalid_argument] if the entry is not in flight. *)

val set_addr : t -> entry -> int -> unit
(** Set an in-flight entry's [addr].  Raises [Invalid_argument] if the
    entry is not in flight. *)

val park : t -> entry -> blocker:int -> unit
(** [park t e ~blocker]: take the [Waiting] entry [e] out of the
    waiting queue until the older in-flight entry with seq [blocker]
    leaves [Waiting].  Only park an entry that no issue walk could act
    on while [blocker] is [Waiting].  Allocates nothing.  Raises
    [Invalid_argument] unless [e] is in flight, [Waiting] and not
    parked, and [blocker] is older, in flight and [Waiting]. *)

val parked_on : t -> entry -> int
(** The seq [e] is parked on, or -1.  Raises [Invalid_argument] if the
    entry is not in flight. *)

val contains : t -> int -> bool
(** Is [seq] currently in flight? *)

val get : t -> int -> entry
(** Entry by seq.  Raises [Invalid_argument] if not in flight. *)

val head : t -> entry option

val pop_head : t -> entry
(** Commit the head.  Raises [Invalid_argument] if empty. *)

val squash_after : t -> int -> entry list
(** [squash_after t seq] removes every entry with a seq strictly
    greater than [seq] and returns them (oldest first) so the caller
    can release their side state. *)

val iter : t -> (entry -> unit) -> unit
(** All in-flight entries, oldest first. *)

val iter_waiting : t -> (entry -> unit) -> unit
(** The [Waiting] entries that are not parked, oldest first. *)

val iter_exec : t -> (entry -> unit) -> unit
(** The [Executing] entries, oldest first.

    In both walks the callback may move the visited entry to another
    state, may {!park} it and may call {!squash_after} on it; it must
    change no other entry's state and must not dispatch.  Entries
    removed by a squash are not visited; entries woken into the
    waiting queue by the visited entry (all younger than it) are. *)

val shift_executing : t -> by:int -> unit
(** Add [by] to the completion cycle of every [Executing] entry (the
    closed-form spin replay's time shift).  Leaves every queue and
    wait link as it is. *)

val exists_older : t -> int -> (entry -> bool) -> bool
(** [exists_older t seq p]: does any in-flight entry older than [seq]
    satisfy [p]? *)

val fold_older : t -> int -> ('a -> entry -> 'a) -> 'a -> 'a
(** Fold over entries older than [seq], oldest first. *)

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

val head_seq : t -> int
(** The seq of the oldest in-flight entry (= the next to commit). *)

val restore : t -> head_seq:int -> entry list -> unit
(** Checkpoint restore: replace the whole window with [entries], which
    must carry consecutive seqs starting at [head_seq] (oldest first).
    Nothing is parked afterwards.  Emits no events. *)
