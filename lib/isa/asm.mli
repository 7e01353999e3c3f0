(** Single-thread assembler with forward labels.

    Emit instructions in order; branch/jump targets may reference
    labels defined later.  [finish] resolves all labels and returns the
    code array.  This is the target of {!Fscope_slang.Codegen} and the
    tool used by hand-written micro-tests. *)

type t

type label

val create : unit -> t

val fresh_label : t -> label
(** A new, not-yet-placed label. *)

val place : t -> label -> unit
(** Bind a label to the current position.  Raises [Invalid_argument]
    if the label was already placed. *)

val emit : t -> Instr.t -> unit
(** Append an instruction whose targets (if any) are already absolute. *)

val branch : t -> Instr.branch_cond -> Reg.t -> label -> unit
(** Conditional branch to a label. *)

val jump : t -> label -> unit
(** Unconditional jump to a label. *)

val finish : t -> Instr.t array
(** Resolve labels and return the code.  Raises [Invalid_argument] if
    any referenced label was never placed. *)
