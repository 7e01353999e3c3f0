(** The cycle-accounting (CPI-stack) taxonomy.

    Every active core-cycle is charged to exactly one [leaf]: per core,
    the leaves sum to the core's active cycles — no cycle is
    unattributed or double-charged.  The classification is chosen so it
    only depends on state that cannot change while the core makes no
    progress; the fast-forwarding engine exploits that to charge a
    whole frozen span with one [charge_n] (see
    [Core.account_stall_span]).

    Leaf precedence for one cycle (first match wins):
    + the commit head was blocked by an unsatisfied fence
      ([Fence_wait], split by whether the fence carried an S-Fence
      scope mask).  Nothing older than the head is left in the ROB, so
      such a fence can only be waiting for the in-scope part of the
      store buffer to drain;
    + the commit head was a completed store facing a full store buffer
      ([Sb_full]);
    + at least one instruction committed ([Spin_candidate] when the
      core is inside a detected spin loop, [Commit] otherwise);
    + nothing committed: an empty ROB is [Branch_flush] while the
      front end waits out a mispredict penalty and [Frontend_empty]
      otherwise; a head load/CAS in flight is charged to the level
      that serves it ([Mem_l1] / [Mem_l2] / [Mem_main]); everything
      else — operand dependences, disambiguation, forwarded loads,
      unresolved branches — is [Exec_dep]. *)

type fence_scope =
  | Scoped  (** the fence waited on an FSB mask (S-Fence hit) *)
  | Unscoped  (** the fence waited globally (traditional, or overflow) *)

type leaf =
  | Commit
  | Spin_candidate
  | Frontend_empty
  | Branch_flush
  | Exec_dep
  | Mem_l1
  | Mem_l2
  | Mem_main
  | Sb_full
  | Fence_wait of fence_scope

val leaf_count : int
val leaves : leaf list
(** Every leaf once, in display order. *)

val name : leaf -> string
(** Stable snake_case name ([commit], [fence_sb_scoped], ...) used for
    registry counters and JSON keys. *)

type t
(** One core's table: cycles charged per leaf. *)

val create : unit -> t
val copy : t -> t
val charge : t -> leaf -> unit
val charge_n : t -> leaf -> times:int -> unit
(** Charge [times] cycles at once (no-op when [times <= 0]). *)

val get : t -> leaf -> int
val total : t -> int
(** Sum over all leaves — equals the core's active cycles. *)

val fence_cycles : t -> int
(** Sum over the two [Fence_wait] leaves (the legacy
    [fence_stall_cycles]). *)

val fence_scope_cycles : t -> fence_scope -> int
val accumulate : into:t -> t -> unit
val equal : t -> t -> bool

val to_array : t -> int array
(** The per-leaf cycle counts in {!leaves} order (checkpointing). *)

val blit : t -> int array -> unit
(** [blit t a]: {!to_array} into [a], of length {!leaf_count}, without
    allocating. *)

val restore : t -> int array -> unit
(** Overwrite the table from an array in {!leaves} order; raises
    [Invalid_argument] on an arity mismatch. *)
