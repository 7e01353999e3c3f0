type instr_class =
  | Load
  | Store
  | Cas
  | Fence
  | Branch
  | Jump
  | Alu
  | Other

type mem_outcome =
  | L1_hit
  | L2_hit
  | L2_miss

type t =
  | Fence_stall_begin of { pc : int; global : bool }
  | Fence_stall_end of { pc : int; cycles : int }
  | Rob_dispatch of { pc : int; cls : instr_class }
  | Rob_commit of { pc : int; cls : instr_class }
  | Sb_insert of { addr : int }
  | Sb_drain of { addr : int; value : int }
  | Scope_push of { column : int option }
  | Scope_pop
  | Mem_access of { addr : int; write : bool; outcome : mem_outcome }
  | Cas_result of { addr : int; success : bool }

type timed = {
  cycle : int;
  core : int;
  event : t;
}

let instr_class_name = function
  | Load -> "load"
  | Store -> "store"
  | Cas -> "cas"
  | Fence -> "fence"
  | Branch -> "branch"
  | Jump -> "jump"
  | Alu -> "alu"
  | Other -> "other"

let mem_outcome_name = function
  | L1_hit -> "l1_hit"
  | L2_hit -> "l2_hit"
  | L2_miss -> "l2_miss"

let name = function
  | Fence_stall_begin _ -> "fence_stall_begin"
  | Fence_stall_end _ -> "fence_stall_end"
  | Rob_dispatch _ -> "rob_dispatch"
  | Rob_commit _ -> "rob_commit"
  | Sb_insert _ -> "sb_insert"
  | Sb_drain _ -> "sb_drain"
  | Scope_push _ -> "scope_push"
  | Scope_pop -> "scope_pop"
  | Mem_access _ -> "mem_access"
  | Cas_result _ -> "cas_result"

let category = function
  | Fence_stall_begin _ | Fence_stall_end _ -> "fence"
  | Rob_dispatch _ | Rob_commit _ -> "rob"
  | Sb_insert _ | Sb_drain _ -> "sb"
  | Scope_push _ | Scope_pop -> "scope"
  | Mem_access _ -> "mem"
  | Cas_result _ -> "cas"

let phase = function
  | Fence_stall_begin _ -> `Begin
  | Fence_stall_end _ -> `End
  | Rob_dispatch _ | Rob_commit _ | Sb_insert _ | Sb_drain _ | Scope_push _
  | Scope_pop | Mem_access _ | Cas_result _ ->
    `Instant

module Json = Fscope_util.Json

let args = function
  | Fence_stall_begin { pc; global } ->
    [ ("pc", Json.Int pc); ("global", Json.Bool global) ]
  | Fence_stall_end { pc; cycles } -> [ ("pc", Json.Int pc); ("cycles", Json.Int cycles) ]
  | Rob_dispatch { pc; cls } | Rob_commit { pc; cls } ->
    [ ("pc", Json.Int pc); ("cls", Json.Str (instr_class_name cls)) ]
  | Sb_insert { addr } -> [ ("addr", Json.Int addr) ]
  | Sb_drain { addr; value } -> [ ("addr", Json.Int addr); ("value", Json.Int value) ]
  | Scope_push { column } ->
    [ ("column", match column with Some c -> Json.Int c | None -> Json.Null) ]
  | Scope_pop -> []
  | Mem_access { addr; write; outcome } ->
    [
      ("addr", Json.Int addr);
      ("write", Json.Bool write);
      ("outcome", Json.Str (mem_outcome_name outcome));
    ]
  | Cas_result { addr; success } ->
    [ ("addr", Json.Int addr); ("success", Json.Bool success) ]
