(** The store buffer: committed stores on their way to memory.

    Stores are retired here in program order at commit and each is
    immediately in flight in the memory system; entries *complete* —
    become globally visible — when their memory access latency
    elapses, which may happen out of order (a hit behind a miss
    completes first).  That out-of-order visibility is the W->W
    relaxation of the simulated RMO machine.

    Each entry carries the fence scope bits its store was dispatched
    with, so scoped fences can wait on exactly the in-scope stores
    (the paper extends store-buffer entries with FSBs). *)

type entry = {
  addr : int;
  value : int;
  mask : Fscope_core.Fsb.mask;
  done_at : int;  (** cycle at which the store becomes globally visible *)
}
(** One entry as {!iter} shows it and {!restore} takes it (checkpoints
    and tests); the buffer itself keeps its entries in preallocated
    int arrays, so {!push} and {!drain_due} allocate nothing. *)

type t

val create : ?trace:Fscope_obs.Trace.t -> ?core:int -> capacity:int -> unit -> t
(** When [trace] is live, [push] emits [Sb_insert] and [drain_due]
    emits one [Sb_drain] per completed entry for [core].  Defaults to
    the disabled {!Fscope_obs.Trace.null}. *)

val is_full : t -> bool
val is_empty : t -> bool
val count : t -> int

val push : t -> addr:int -> value:int -> mask:Fscope_core.Fsb.mask -> done_at:int -> unit
(** Append a committed store that becomes visible at [done_at].
    Raises [Invalid_argument] when full. *)

val drain_due :
  t -> cycle:int -> ('a -> addr:int -> value:int -> mask:Fscope_core.Fsb.mask -> unit) -> 'a -> bool
(** [drain_due t ~cycle apply x] removes every entry with
    [done_at <= cycle], oldest first, calling [apply x] on each: these
    are the stores whose values the machine must apply to memory this
    cycle.  [apply] must not touch [t].  Returns whether any entry
    drained.  Allocates nothing when [apply] is a top-level function. *)

val youngest_to : t -> addr:int -> int
(** The position (0 = oldest) of the youngest entry to [addr], for
    store-to-load forwarding; -1 if none. *)

val value_at : t -> int -> int
(** The value of the entry at a position. *)

val due_at : t -> int -> int
(** The [done_at] of the entry at a position. *)

val has_addr : t -> addr:int -> bool

val last_due_to : t -> addr:int -> int
(** The latest [done_at] among the entries to [addr]; 0 if none. *)

val mask_overlaps : t -> Fscope_core.Fsb.mask -> bool
(** Does any entry's scope bits intersect the given mask?  (The fence
    FSB check over the store buffer.)  Reads one per-column count per
    set bit of the mask; never walks the entries. *)

val column_count : t -> int -> int
(** [column_count t c]: how many entries have scope bit [c] set. *)

val iter : t -> (entry -> unit) -> unit
(** Oldest first. *)

val restore : t -> entry list -> unit
(** Checkpoint restore: replace the contents with [entries] (oldest
    first).  Emits no events. *)
