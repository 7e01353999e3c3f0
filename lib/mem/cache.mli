(** A set-associative cache tag store with true-LRU replacement.

    The cache is generic in its per-line payload so the same structure
    serves the private L1s (payload: MSI state) and the shared L2
    (payload: directory entry).  It tracks tags only — data always
    lives in the flat memory image; the timing model charges latencies
    based on where the tag hits.

    Lines live in slots (one per set and way) kept as parallel arrays
    of tags, LRU stamps and payloads, so lookups allocate nothing:
    they answer with a slot index, -1 for a miss.  The arrays are
    split into blocks of sets, each allocated by the first {!fill}
    into it (the only allocation).  A block holds the fewest sets, a
    power of two, whose slots exceed 256 (128 sets at 4 ways, 64 at
    8), so its arrays are allocated straight in the major heap rather
    than promoted there from the minor heap.  Until then its slots read as
    invalid with LRU stamp 0, exactly as if it had been allocated
    empty, so a run pays only for the sets it touches.  A slot index
    is opaque: only the cache that returned it can read it. *)

type 'a t

val create : sets:int -> ways:int -> line_words:int -> empty:'a -> 'a t
(** [sets] and [ways] must be positive; [line_words] must be a positive
    power of two.  [empty] is the payload an invalid slot holds. *)

val line_addr : 'a t -> int -> int
(** [line_addr t addr] is the address of the first word of [addr]'s
    line — the canonical key for a line. *)

val find : 'a t -> int -> int
(** [find t addr] is the slot holding [addr]'s line, promoted to
    most-recently-used, or -1 if the line is absent. *)

val peek : 'a t -> int -> int
(** Like [find] without the LRU update. *)

val payload : 'a t -> int -> 'a
(** The payload of a slot (the [empty] payload if the slot is
    invalid). *)

val line : 'a t -> int -> int
(** The line a slot holds, or -1 if it is invalid. *)

val update : 'a t -> int -> 'a -> unit
(** Replace the payload of a resident line.  Raises [Invalid_argument]
    if the line is not resident. *)

val victim : 'a t -> int -> int
(** The slot to fill with [addr]'s line: the first invalid way of its
    set, else the least recently used (the earliest way on a tie).
    Read it with {!line} and {!payload} before {!fill} to handle an
    eviction.  Raises [Invalid_argument] if the line is already
    resident. *)

val fill : 'a t -> int -> int -> 'a -> unit
(** [fill t slot addr payload] makes [addr]'s line resident (MRU) in
    [slot], the {!victim} for it, overwriting what the slot held. *)

val invalidate : 'a t -> int -> bool
(** Remove a line; whether it was resident. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Iterate over all resident lines as [(line_addr, payload)]. *)

val resident : 'a t -> int -> bool

val dump :
  'a t -> payload:('a -> 'b) -> int * (int * int * 'b option) array array
(** [(clock, slots)] where [slots.(set).(way)] is [(tag, stamp,
    payload)] — positional, because LRU victim choice depends on way
    order and exact stamps.  [payload] maps each resident line's
    payload to a serializable form; an invalid slot has [None]. *)

val restore :
  'a t -> payload:('b -> 'a) -> int * (int * int * 'b option) array array -> unit
(** Inverse of {!dump} into an existing cache of the same geometry.
    Only blocks holding a line or a nonzero stamp end up allocated.
    Raises [Invalid_argument] on a shape mismatch or a slot whose
    payload does not match its tag (present iff the tag is not -1). *)
