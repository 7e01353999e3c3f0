(** The reorder buffer.

    A circular buffer of in-flight instructions indexed by a global
    sequence number ([seq]); slot = [seq mod size].  Instructions
    dispatch at the tail, execute out of order, and commit in order
    from the head.  A branch misprediction squashes every entry
    younger than the branch.

    Beside the window, the ROB keeps two oldest-first sub-queues: the
    entries that are [Waiting] and the entries that are [Executing].
    A full ROB behind a fence or a long miss is mostly [Done] entries
    that no stage can act on, so the per-cycle stages walk a queue
    instead of the window: issue walks {!iter_waiting}, the completion
    phases and branch resolution walk {!iter_exec}.  An entry's
    [state] alone decides which queue holds it, so the rule is: after
    an entry is dispatched, only {!set_state} (and
    {!shift_executing}) may change its [state].  {!dispatch},
    {!pop_head}, {!squash_after} and {!restore} keep the queues in
    step with the window.

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
  srcs : src array;  (** in the order of {!Fscope_isa.Instr.reads_regs} *)
  mutable state : exec_state;  (** write through {!set_state} only *)
  mutable result : int;  (** dst value: load data, ALU result, CAS success bit *)
  mutable addr : int;  (** memory address once computed; -1 = unknown *)
  mutable data : int;  (** store data / CAS desired value *)
  mutable data2 : int;  (** CAS expected value *)
  mutable scope_mask : Fscope_core.Fsb.mask;
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
(** A fresh entry in its dispatch-time [state]. *)

type t

val create : ?trace:Fscope_obs.Trace.t -> ?core:int -> size:int -> unit -> t
(** When [trace] is live, [dispatch] and [pop_head] emit
    [Rob_dispatch] / [Rob_commit] events for [core].  Defaults to the
    disabled {!Fscope_obs.Trace.null}. *)

val size : t -> int
val count : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val next_seq : t -> int
(** The seq the next dispatched entry must carry. *)

val dispatch : t -> entry -> unit
(** Append at the tail (and to the sub-queue of its [state]).  Raises
    [Invalid_argument] if full or if the entry's seq is not
    [next_seq]. *)

val set_state : t -> entry -> exec_state -> unit
(** Change an in-flight entry's state, moving it between the
    sub-queues.  Raises [Invalid_argument] if the entry is not in
    flight. *)

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
(** The [Waiting] entries, oldest first. *)

val iter_exec : t -> (entry -> unit) -> unit
(** The [Executing] entries, oldest first.

    In both walks the callback may move the visited entry to another
    state and may call {!squash_after} on it; it must change no other
    entry's state and must not dispatch.  Entries removed by a squash
    are not visited. *)

val shift_executing : t -> by:int -> unit
(** Add [by] to the completion cycle of every [Executing] entry (the
    closed-form spin replay's time shift). *)

val exists_older : t -> int -> (entry -> bool) -> bool
(** [exists_older t seq p]: does any in-flight entry older than [seq]
    satisfy [p]? *)

val fold_older : t -> int -> ('a -> entry -> 'a) -> 'a -> 'a
(** Fold over entries older than [seq], oldest first. *)

val head_seq : t -> int
(** The seq of the oldest in-flight entry (= the next to commit). *)

val restore : t -> head_seq:int -> entry list -> unit
(** Checkpoint restore: replace the whole window with [entries], which
    must carry consecutive seqs starting at [head_seq] (oldest first).
    Emits no events. *)
