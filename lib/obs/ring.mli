(** One core's trace event ring.

    A flight recorder: pushing into a full ring overwrites the oldest
    event and counts the loss, so a long run keeps "the most recent
    [capacity] events" instead of growing without bound.

    Events are stored unboxed, four words each in one [int array]: the
    cycle, a constructor tag and two payload words.  {!push} decodes
    an {!Event.t} into its slot with plain integer stores, so recording
    takes no write barrier and allocates nothing but the array's
    doubling; {!merge} rebuilds the {!Event.timed} values once, when
    the trace is read.  The array starts at 64 slots (fewer if
    [capacity] is smaller) and doubles whenever it fills, up to
    [capacity], so a sparse core never pays for the full ring. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val push : t -> cycle:int -> Event.t -> unit
val length : t -> int

val dropped : t -> int
(** How many events have been overwritten so far. *)

val merge : t array -> Event.timed list
(** The retained events of [rings], ring [i] being core [i]'s, merged
    by cycle, then core, then each core's push order.  Each ring's
    pushes must come in non-decreasing cycle order, as the trace clock
    makes them. *)
