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

type t

val create : ?trace:Fscope_obs.Trace.t -> ?core:int -> capacity:int -> unit -> t
(** When [trace] is live, [push] emits [Sb_insert] and
    [take_completed] emits one [Sb_drain] per completed entry for
    [core].  Defaults to the disabled {!Fscope_obs.Trace.null}. *)

val capacity : t -> int
val is_full : t -> bool
val is_empty : t -> bool
val count : t -> int

val push : t -> entry -> unit
(** Raises [Invalid_argument] when full. *)

val take_completed : t -> cycle:int -> entry list
(** Remove and return every entry with [done_at <= cycle], oldest
    first.  These are the stores whose values the machine must apply
    to memory this cycle.  Allocates nothing when no entry is due. *)

val forward : t -> addr:int -> int option
(** Youngest entry to [addr], for store-to-load forwarding. *)

val has_addr : t -> addr:int -> bool

val mask_overlaps : t -> Fscope_core.Fsb.mask -> bool
(** Does any entry's scope bits intersect the given mask?  (The fence
    FSB check over the store buffer.) *)

val iter : t -> (entry -> unit) -> unit
(** Oldest first. *)

val restore : t -> entry list -> unit
(** Checkpoint restore: replace the contents with [entries] (oldest
    first).  Emits no events. *)
