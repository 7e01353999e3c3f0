(** The fence scope stack (FSS).

    Records the FSB columns of the nested scopes currently being
    decoded; the outermost scope is at the bottom, the scope in which
    instructions are currently decoded at the top (paper §IV-A.3).
    The stack has a fixed hardware capacity; overflow is handled by
    {!Scope_unit} with the paper's counter mechanism, so pushing onto a
    full stack here is a programming error. *)

type t

val create : capacity:int -> t
val is_full : t -> bool
val is_empty : t -> bool

val push : t -> int -> unit
(** Push a column index.  Raises [Invalid_argument] when full. *)

val pop : t -> unit
(** Drop the top column, if any. *)

val top : t -> int
(** The top column, or -1 when empty. *)

val mask : t -> Fsb.mask
(** Union of all columns on the stack — the FSB bits a newly decoded
    memory operation must set ("when an inner scope is flagged for an
    instruction, all of its outer scopes are also flagged"). *)

val contains : t -> int -> bool
(** Is a column anywhere on the stack? *)

val copy_from : t -> t -> unit
(** [copy_from dst src] overwrites [dst]'s contents with [src]'s (the
    FSS <- FSS' restore on a branch misprediction).  Capacities must
    match. *)

val to_list : t -> int list
(** Bottom to top. *)

val restore : t -> int list -> unit
(** Replace the contents with the given columns (bottom to top);
    raises [Invalid_argument] past capacity.  Checkpoint restore. *)
