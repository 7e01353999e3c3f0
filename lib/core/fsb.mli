(** Fence scope bits (FSB).

    Each ROB and store-buffer entry carries a small bit vector with one
    bit per FSB column; a set bit means "this memory access belongs to
    the scope tracked by that column".  Masks are plain ints (the paper
    uses 4 columns; we allow up to 62). *)

type mask = int

val empty : mask
val column : int -> mask
(** The mask with only column [i] set.  [i] must be in [\[0, 61\]]. *)

val union : mask -> mask -> mask
val inter : mask -> mask -> mask
val mem : int -> mask -> bool
(** [mem i m] is true if column [i] is set in [m]. *)

val is_empty : mask -> bool
val columns : mask -> int list
(** Set columns, ascending. *)

