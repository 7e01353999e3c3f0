(** The event taxonomy of the observability layer.

    Every interesting micro-architectural moment the simulator can
    report is one constructor of {!t}; an emission site packages it
    with the core and cycle it happened on ({!timed}).  The taxonomy
    deliberately mirrors the paper's cost model: fence stalls (the
    quantity Figs. 12-16 decompose), ROB flow, store-buffer flow, FSS
    scope activity, cache outcomes and CAS outcomes.

    Events are data only — rendering lives in {!Sink} — but this
    module owns the stable wire names ([name], [args], [category]) so
    every sink agrees on them. *)

type instr_class =
  | Load
  | Store
  | Cas
  | Fence
  | Branch
  | Jump
  | Alu  (** Li / Tid / ALU proper *)
  | Other  (** Nop, Fs_start, Fs_end, Halt *)

type mem_outcome =
  | L1_hit
  | L2_hit  (** L1 miss served by the L2 *)
  | L2_miss  (** served by memory *)

type t =
  | Fence_stall_begin of { pc : int; global : bool }
      (** the commit-head fence first failed to retire; [global] is
          true when it waits on every prior access (traditional or
          conservative fall-back), false when scoped to an FSB mask *)
  | Fence_stall_end of { pc : int; cycles : int }
      (** the same fence retired after [cycles] blocked cycles *)
  | Rob_dispatch of { pc : int; cls : instr_class }
  | Rob_commit of { pc : int; cls : instr_class }
  | Sb_insert of { addr : int }
  | Sb_drain of { addr : int; value : int }
  | Scope_push of { column : int option }
      (** FS_START entered a scope; [None] = overflow/counter push *)
  | Scope_pop  (** FS_END left a scope *)
  | Mem_access of { addr : int; write : bool; outcome : mem_outcome }
  | Cas_result of { addr : int; success : bool }

type timed = {
  cycle : int;
  core : int;
  event : t;
}

val name : t -> string
(** Stable snake_case wire name, e.g. ["fence_stall_begin"]. *)

val category : t -> string
(** Event family: ["fence"], ["rob"], ["sb"], ["scope"], ["mem"] or
    ["cas"] — the Chrome sink's [cat] field. *)

val phase : t -> [ `Begin | `End | `Instant ]
(** How the Chrome sink renders it: a duration-begin, duration-end, or
    instant event. *)

val args : t -> (string * Fscope_util.Json.t) list
(** Payload fields, in wire order, as JSON atoms (numbers, booleans,
    strings, [null]) for the sinks to place in their objects. *)
