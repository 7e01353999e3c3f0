(** A bimodal branch predictor: a table of 2-bit saturating counters
    indexed by the low bits of the branch pc. *)

type t

val create : entries:int -> t
(** [entries] must be a positive power of two. *)

val predict : t -> pc:int -> bool
(** Predicted direction (true = taken). *)

val update : t -> pc:int -> taken:bool -> unit
(** Train with the actual outcome. *)

val snapshot : t -> int array
(** A copy of the counter table; two snapshots compare equal iff the
    predictor would behave identically.  Used by the spin-stability
    probe. *)

val entries : t -> int

val counter : t -> int -> int
(** One counter of the table: with {!entries}, {!snapshot} without the
    copy. *)

val restore : t -> int array -> unit
(** Overwrite the counter table from a {!snapshot} (checkpoint
    restore); raises [Invalid_argument] on a size mismatch. *)
