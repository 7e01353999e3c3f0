type alu_op =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Slt
  | Sle
  | Seq
  | Sne

type operand =
  | Reg of Reg.t
  | Imm of int

type branch_cond =
  | Eqz
  | Nez

type t =
  | Nop
  | Li of Reg.t * int
  | Alu of alu_op * Reg.t * Reg.t * operand
  | Tid of Reg.t
  | Load of { dst : Reg.t; base : Reg.t; off : int; flagged : bool }
  | Store of { src : Reg.t; base : Reg.t; off : int; flagged : bool }
  | Cas of {
      dst : Reg.t;
      base : Reg.t;
      off : int;
      expected : Reg.t;
      desired : Reg.t;
      flagged : bool;
    }
  | Branch of { cond : branch_cond; src : Reg.t; target : int }
  | Jump of int
  | Fence of Fence_kind.t
  | Fs_start of int
  | Fs_end of int
  | Halt

let is_memory = function
  | Load _ | Store _ | Cas _ -> true
  | Nop | Li _ | Alu _ | Tid _ | Branch _ | Jump _ | Fence _ | Fs_start _ | Fs_end _
  | Halt ->
    false

let is_store_like = function
  | Store _ | Cas _ -> true
  | Nop | Li _ | Alu _ | Tid _ | Load _ | Branch _ | Jump _ | Fence _ | Fs_start _
  | Fs_end _ | Halt ->
    false

let dst_index = function
  | Li (dst, _) | Alu (_, dst, _, _) | Tid dst | Load { dst; _ } | Cas { dst; _ } ->
    if Reg.equal dst Reg.zero then -1 else Reg.index dst
  | Nop | Store _ | Branch _ | Jump _ | Fence _ | Fs_start _ | Fs_end _ | Halt -> -1

let reads_regs instr =
  let srcs =
    match instr with
    | Nop | Li _ | Tid _ | Jump _ | Fence _ | Fs_start _ | Fs_end _ | Halt -> []
    | Alu (_, _, a, Reg b) -> [ a; b ]
    | Alu (_, _, a, Imm _) -> [ a ]
    | Load { base; _ } -> [ base ]
    | Store { src; base; _ } -> [ src; base ]
    | Cas { base; expected; desired; _ } -> [ base; expected; desired ]
    | Branch { src; _ } -> [ src ]
  in
  List.sort_uniq Reg.compare srcs

let branch_targets = function
  | Branch { target; _ } | Jump target -> [ target ]
  | Nop | Li _ | Alu _ | Tid _ | Load _ | Store _ | Cas _ | Fence _ | Fs_start _
  | Fs_end _ | Halt ->
    []

let alu_op_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Slt -> "slt"
  | Sle -> "sle"
  | Seq -> "seq"
  | Sne -> "sne"

let pp_operand fmt = function
  | Reg r -> Reg.pp fmt r
  | Imm i -> Format.fprintf fmt "#%d" i

let flag_suffix flagged = if flagged then ".fs" else ""

let pp fmt = function
  | Nop -> Format.pp_print_string fmt "nop"
  | Li (dst, v) -> Format.fprintf fmt "li %a, %d" Reg.pp dst v
  | Alu (op, dst, a, b) ->
    Format.fprintf fmt "%s %a, %a, %a" (alu_op_name op) Reg.pp dst Reg.pp a pp_operand b
  | Tid dst -> Format.fprintf fmt "tid %a" Reg.pp dst
  | Load { dst; base; off; flagged } ->
    Format.fprintf fmt "ld%s %a, %d(%a)" (flag_suffix flagged) Reg.pp dst off Reg.pp base
  | Store { src; base; off; flagged } ->
    Format.fprintf fmt "st%s %a, %d(%a)" (flag_suffix flagged) Reg.pp src off Reg.pp base
  | Cas { dst; base; off; expected; desired; flagged } ->
    Format.fprintf fmt "cas%s %a, %d(%a), %a, %a" (flag_suffix flagged) Reg.pp dst off
      Reg.pp base Reg.pp expected Reg.pp desired
  | Branch { cond; src; target } ->
    let name = match cond with Eqz -> "beqz" | Nez -> "bnez" in
    Format.fprintf fmt "%s %a, @%d" name Reg.pp src target
  | Jump target -> Format.fprintf fmt "j @%d" target
  | Fence kind -> Fence_kind.pp fmt kind
  | Fs_start cid -> Format.fprintf fmt "fs_start %d" cid
  | Fs_end cid -> Format.fprintf fmt "fs_end %d" cid
  | Halt -> Format.pp_print_string fmt "halt"

let to_string t = Format.asprintf "%a" pp t
