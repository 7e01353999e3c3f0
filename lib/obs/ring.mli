(** One core's trace event ring.

    A flight recorder: pushing into a full ring overwrites the oldest
    event and counts the loss, so a long run keeps "the most recent
    [capacity] events" instead of growing without bound.

    Events are stored unboxed, four words each, in [int array] chunks
    of 1024 slots: the cycle, a constructor tag and two payload words.
    The writers ({!rob_dispatch}, ...) fill a slot with plain integer
    stores, so recording takes no write barrier and builds no
    {!Event.t}.  The only allocation is a chunk,
    made when the ring first reaches it (the last one only as long as
    [capacity] needs) and never copied or moved, so a sparse core
    never pays for the full ring and a growing one never pays twice.
    Only the chunk directory, one word per 1024 slots of [capacity],
    is allocated up front.  Events are decoded back into
    {!Event.timed} values only when they are read ({!iter}). *)

type t

val chunk_slots : int
(** The slots of one chunk (1024). *)

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

(** {2 Writers}

    One per {!Event.t} constructor ([Scope_push] has two: with and
    without a column).  Each stores its event at [cycle] in the slot
    encoding, without building the {!Event.t}. *)

val fence_stall_begin : t -> cycle:int -> pc:int -> global:bool -> unit
val fence_stall_end : t -> cycle:int -> pc:int -> cycles:int -> unit
val rob_dispatch : t -> cycle:int -> pc:int -> cls:Event.instr_class -> unit
val rob_commit : t -> cycle:int -> pc:int -> cls:Event.instr_class -> unit
val sb_insert : t -> cycle:int -> addr:int -> unit
val sb_drain : t -> cycle:int -> addr:int -> value:int -> unit

val scope_push : t -> cycle:int -> column:int -> unit
(** [Scope_push { column = Some column }]. *)

val scope_push_none : t -> cycle:int -> unit
(** [Scope_push { column = None }]. *)

val scope_pop : t -> cycle:int -> unit
val mem_access :
  t -> cycle:int -> addr:int -> write:bool -> outcome:Event.mem_outcome -> unit
val cas_result : t -> cycle:int -> addr:int -> success:bool -> unit

val length : t -> int

val dropped : t -> int
(** How many events have been overwritten so far. *)

val scope_counts : t -> int * int
(** The retained [Scope_push] and [Scope_pop] events, counted from the
    slot tags without decoding them. *)

val iter : t array -> (Event.timed -> unit) -> unit
(** Decode the retained events of [rings], ring [i] being core [i]'s,
    one at a time, merged by cycle, then core, then each core's push
    order; this is the only place an {!Event.t} is built from a ring.
    Each ring's pushes must come in non-decreasing cycle
    order, as the trace clock makes them. *)
