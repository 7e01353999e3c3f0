(** The per-core S-Fence hardware unit.

    Ties together the FSB columns, the mapping table (MT), the fence
    scope stack (FSS) and its shadow copy FSS' (§IV-A).  The CPU core
    drives it with decode-order events and queries it for:

    - the FSB mask a newly dispatched memory operation must set
      ([decode_mask]);
    - the wait condition of a dispatched fence ([fence_scope]).

    {2 Speculation and the shadow stack}

    The paper keeps a shadow FSS' that "is only updated by
    [fs_start]/[fs_end] if there is no unconfirmed branch prediction
    prior to them" and is copied back over FSS on a misprediction.  We
    realise that sketch precisely: scope micro-ops decoded while an
    older branch is unresolved are buffered in a decode-order event
    FIFO and applied to the confirmed state (FSS' plus the overflow
    counter's shadow) only once every older branch has resolved
    correctly.  On a misprediction the live state is rebuilt as
    [confirmed state + buffered micro-ops older than the mispredicted
    branch], which is exactly the state the correct path had built.

    {2 Overflow}

    When the MT or the FSS is full at an [fs_start], the unit enters
    counter mode (§IV-A.3 "Handling excessive scopes"): the counter
    counts the excess nesting depth and every fence decoded while it is
    non-zero behaves as a traditional full fence. *)

type config = {
  fsb_entries : int;
      (** total FSB columns; the last one is reserved for set scope, the
          rest serve class scopes (paper default: 4) *)
  fss_entries : int;  (** FSS capacity (paper default: 4) *)
  mt_entries : int;  (** mapping table capacity (we default to 4) *)
  enabled : bool;
      (** false = the S-Fence hardware is absent and every fence is
          treated as a traditional full fence (the paper's baseline T) *)
}

val default_config : config
(** 4 FSB columns, 4 FSS entries, 4 MT entries, enabled. *)

val validate : config -> unit
(** Raises [Invalid_argument] unless [fsb_entries] is in 1..62 (one
    {!Fsb} mask bit per column) and the FSS and mapping table have at
    least one entry each. *)

type t

val create : ?trace:Fscope_obs.Trace.t -> ?core:int -> config -> t
(** [trace]/[core] hook the unit into the observability layer: when the
    trace is live, every [fs_start]/[fs_end] emits a
    [Scope_push]/[Scope_pop] event for [core].  Defaults to the
    disabled {!Fscope_obs.Trace.null} (no events, no overhead). *)

val config : t -> config
val enabled : t -> bool

val set_column : t -> int
(** The FSB column reserved for set-scope accesses. *)

(** {2 Decode-order events} *)

val on_branch : t -> id:int -> unit
(** A conditional branch was dispatched; [id] must be unique among
    in-flight branches (the ROB sequence number serves). *)

val on_branch_correct : t -> id:int -> unit
(** The branch resolved and the prediction was right. *)

val on_branch_mispredict : t -> id:int -> unit
(** The branch resolved wrong.  Restores FSS (and the counter) to the
    correct-path state and forgets every younger buffered event.  The
    core must also report the squashed memory operations' masks via
    [on_bits_cleared]. *)

val on_fs_start : t -> cid:int -> unit
val on_fs_end : t -> cid:int -> unit

val decode_mask : t -> flagged:bool -> Fsb.mask
(** FSB bits for a memory operation being dispatched now: one bit per
    scope on the FSS ("when an inner scope is flagged, all of its
    outer scopes are also flagged") plus the set column if the
    instruction carries the compiler's set-scope flag. *)

val on_bits_set : t -> Fsb.mask -> unit
(** Account a dispatched memory op's mask as outstanding. *)

val on_bits_cleared : t -> Fsb.mask -> unit
(** The op completed (or was squashed); its bits are clear again. *)

val outstanding : t -> int -> int
(** Outstanding bit count of a column (tests / MT reclamation). *)

val fence_scope : t -> Fscope_isa.Fence_kind.t -> [ `Global | `Mask of Fsb.mask ]
(** The wait condition for a fence dispatched now.  [`Global] = wait
    for every earlier memory access (traditional fence); [`Mask m] =
    wait only for accesses whose FSB bits intersect [m].  Must be
    called at dispatch and captured in the ROB entry: it depends on
    the FSS top at decode time. *)

val in_overflow : t -> bool
(** Is the live overflow counter non-zero? *)

val current_cid : t -> int option
(** The class id of the innermost live scope, if the unit is enabled,
    not in overflow, and the FSS top column still has an MT mapping.
    Captured at fence dispatch for per-scope stall attribution. *)

val live_stack : t -> int list
(** Live FSS contents, bottom to top (tests). *)

val confirmed_stack : t -> int list
(** FSS' contents (tests). *)

val to_json : t -> Fscope_util.Json.t
(** Whole-unit checkpoint: live + confirmed FSS and overflow counters,
    the MT mappings, outstanding FSB bit counts and the decode-order
    event FIFO (branch ids are ROB seqs — absolute, like everything in
    a machine checkpoint). *)

val restore : t -> Fscope_util.Json.t -> unit
(** Inverse of {!to_json} into a unit created with the same config;
    raises [Failure] on malformed input. *)

val reset : t -> unit
(** Forget all state (stacks, counters, MT, outstanding bits, events).
    The sampled engine resets the unit at a functional→detailed
    transition and replays the architectural nesting via
    {!on_fs_start}. *)

val spin_fingerprint : t -> base:int -> (int * bool) list option
(** The decode-order event FIFO as comparable data: one
    [(base - branch_id, resolved)] pair per buffered branch event, or
    [None] if any scope micro-op is buffered.  The core's
    spin-stability probe compares fingerprints taken at two loop
    boundaries (with [base] the ROB's next sequence number) to decide
    whether the unit's speculative state is periodic. *)
