(** Instructions of the simulated RISC ISA.

    The ISA is deliberately small: enough to compile the mini language
    and to carry the two ISA extensions of the paper —
    [class-fence]/[set-fence] together with the [fs_start]/[fs_end]
    marker instructions (Tables I and II), and a per-memory-instruction
    set-scope flag. *)

type alu_op =
  | Add
  | Sub
  | Mul
  | Div  (** Truncating; division by zero yields 0 (the simulator never traps). *)
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Slt  (** set-less-than: 1 if a < b else 0 *)
  | Sle
  | Seq
  | Sne

type operand =
  | Reg of Reg.t
  | Imm of int

type branch_cond =
  | Eqz  (** branch if register = 0 *)
  | Nez  (** branch if register <> 0 *)

type t =
  | Nop
  | Li of Reg.t * int  (** load immediate *)
  | Alu of alu_op * Reg.t * Reg.t * operand  (** [Alu (op, dst, a, b)] *)
  | Tid of Reg.t  (** dst := hardware thread (core) id *)
  | Load of { dst : Reg.t; base : Reg.t; off : int; flagged : bool }
      (** dst := mem\[base + off\]; [flagged] marks set-scope membership *)
  | Store of { src : Reg.t; base : Reg.t; off : int; flagged : bool }
  | Cas of {
      dst : Reg.t;  (** receives 1 on success, 0 on failure *)
      base : Reg.t;
      off : int;
      expected : Reg.t;
      desired : Reg.t;
      flagged : bool;
    }  (** atomic compare-and-swap on mem\[base + off\] *)
  | Branch of { cond : branch_cond; src : Reg.t; target : int }
  | Jump of int
  | Fence of Fence_kind.t
  | Fs_start of int  (** start of a class scope; operand is the class id *)
  | Fs_end of int  (** end of a class scope *)
  | Halt

val is_memory : t -> bool
(** Loads, stores and CAS — the instructions a fence may wait on. *)

val is_store_like : t -> bool
(** Stores and CAS — instructions that write memory. *)

val dst_index : t -> int
(** The index of the destination register, or -1 if there is none
    (writes to [Reg.zero] are discarded, so they report -1 too). *)

val reads_regs : t -> Reg.t list
(** Source registers, duplicates removed, [Reg.zero] included (it reads
    as constant 0 but is harmless to list). *)

val branch_targets : t -> int list
(** Static control-flow targets of branches and jumps. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
