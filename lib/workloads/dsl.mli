(** Combinators for building slang ASTs concisely.

    The workload programs are a few hundred statements each; these
    helpers keep them close to the paper's pseudo code. *)

open Fscope_slang.Ast

(** {2 Expressions} *)

val i : int -> expr
val l : string -> expr
val tid : expr

val g : string -> expr
(** Read a scalar global. *)

val elem : string -> expr -> expr
(** Read a global array element. *)

val fld : string -> string -> expr
(** Read an instance scalar field ([fld "self" "n"] inside methods). *)

val fldelem : string -> string -> expr -> expr

val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val ( % ) : expr -> expr -> expr
val ( < ) : expr -> expr -> expr
val ( <= ) : expr -> expr -> expr
val ( > ) : expr -> expr -> expr
val ( >= ) : expr -> expr -> expr
val ( = ) : expr -> expr -> expr
val ( <> ) : expr -> expr -> expr
val ( &&& ) : expr -> expr -> expr
(** Bitwise and — logical "and" when operands are 0/1. *)

val ( ||| ) : expr -> expr -> expr

val ( << ) : expr -> expr -> expr
(** Shift left — with {!( >> )} and {!bxor}, enough for the integer
    hash mixing the server-cache workload does in slang. *)

val ( >> ) : expr -> expr -> expr
val bxor : expr -> expr -> expr
val not_ : expr -> expr

(** {2 Statements} *)

val let_ : string -> expr -> stmt
val set : string -> expr -> stmt
(** Assign an existing local. *)

val sg : string -> expr -> stmt
(** Store to a scalar global. *)

val selem : string -> expr -> expr -> stmt
(** [selem arr idx v]: store to a global array element. *)

val sfld : string -> string -> expr -> stmt
val sfldelem : string -> string -> expr -> expr -> stmt

val if_ : expr -> block -> block -> stmt
val when_ : expr -> block -> stmt
(** [if_] with an empty else. *)

val while_ : expr -> block -> stmt

val fence : stmt
(** Traditional full fence. *)

val fence_class : stmt
val fence_set : string list -> stmt

val fence_ss : stmt -> stmt
(** Restrict a fence statement to the store-store direction (sfence-
    like); combines with any scope. *)

val fence_ll : stmt -> stmt
val fence_sl : stmt -> stmt

val cas_g : string -> string -> expr -> expr -> stmt
(** [cas_g dst global expected desired]. *)

val cas_elem : string -> string -> expr -> expr -> expr -> stmt
(** [cas_elem dst arr idx expected desired]. *)

val cas_fld : string -> string -> string -> expr -> expr -> stmt
(** [cas_fld dst instance field expected desired]. *)

val cas_fldelem : string -> string -> string -> expr -> expr -> expr -> stmt

val call : string -> string -> expr list -> stmt
(** [call instance meth args]. *)

val callv : string -> string -> string -> expr list -> stmt
(** [callv dst instance meth args]: dst := instance.meth(args). *)

val return_ : expr -> stmt

(** {2 Composite blocks} *)

val delay : unique:string -> expr -> block
(** [delay ~unique n]: an all-register countdown of [n] iterations —
    the open-loop arrival pacing of the server workloads.  [unique]
    disambiguates the loop's local per call site. *)

val fetch_add_g : unique:string -> string -> expr -> block
(** [fetch_add_g ~unique name by]: atomic fetch-and-add on a scalar
    global via a CAS retry loop. *)

val incr_elem : string -> expr -> stmt
(** [incr_elem arr idx]: [arr\[idx\] <- arr\[idx\] + 1]. *)

val scratch_work : unique:string -> arr:string -> expr -> block
(** [scratch_work ~unique ~arr n]: an [n]-iteration countdown that
    stores into the thread-private array [arr] (size >= 64) each
    iteration — request-handler work whose dirty private lines a
    traditional fence must drain but a scoped fence may skip. *)

(** {2 Declarations} *)

val meth : string -> string list -> ?returns:bool -> block -> meth
val scalar : string -> int -> string * int
val array : string -> int -> string * int * int array option
val array_init : string -> int array -> string * int * int array option
