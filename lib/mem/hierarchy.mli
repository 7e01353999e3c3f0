(** The simulated memory system: per-core private L1 caches, a shared
    inclusive L2 with an in-cache directory, and flat memory.

    The paper's Table III configuration: private 32 KB 4-way L1 with
    2-cycle latency, shared 1 MB 8-way L2 with 10-cycle latency,
    300-cycle memory.  Coherence is a directory-based MSI invalidate
    protocol; a dirty line supplied by a remote L1 costs an extra
    cache-to-cache transfer latency.

    The module is a *timing and state* model: [access] mutates the tag
    and directory state immediately and returns the access latency.
    Data values live in the machine's flat memory image, which applies
    store values at the returned completion time — that is what gives
    the simulator its relaxed (RMO-like) visibility order. *)

type config = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  line_words : int;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;  (** charged on an L2 miss, on top of L1+L2 *)
  c2c_latency : int;  (** extra cost when a remote L1 supplies a dirty line *)
}

val default_config : config
(** Table III: 32 KB/4-way L1 (2 cycles), 1 MB/8-way L2 (10 cycles),
    300-cycle memory, 32-byte lines (8 words), 20-cycle c2c. *)

type kind =
  | Read
  | Write
  | Rmw  (** compare-and-swap: needs exclusive ownership, like a write *)

type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable invalidations : int;  (** remote L1 copies killed by writes *)
  mutable c2c_transfers : int;
}

type t

val create : ?trace:Fscope_obs.Trace.t -> cores:int -> config -> t
(** When [trace] is live, every [access] emits a [Mem_access] event
    (L1 hit / L2 hit / L2 miss) for the accessing core.  Defaults to
    the disabled {!Fscope_obs.Trace.null}. *)

val access : t -> core:int -> kind -> addr:int -> int
(** [access t ~core kind ~addr] simulates one access and returns its
    latency in cycles.  [addr] is a word address; any non-negative
    value is accepted (the cache indexes by line).  Allocates nothing
    unless the access misses the L2 (a new directory entry). *)

val last_outcome : t -> Fscope_obs.Event.mem_outcome
(** The level that served the last {!access} (the same outcome the
    [Mem_access] event carries); the profiler charges head-of-ROB
    memory stalls to that level. *)

val access_classified :
  t -> core:int -> kind -> addr:int -> int * Fscope_obs.Event.mem_outcome
(** {!access} and then {!last_outcome}, as a pair. *)

val stats : t -> stats
(** The live (mutable) counter record of this hierarchy. *)

val set_remote_victim_hook : t -> (core:int -> unit) -> unit
(** Install a callback fired just {e before} another core's access
    mutates [core]'s L1 state: a directory invalidation, an inclusive
    L2-eviction recall, or a Modified→Shared downgrade when a remote
    reader pulls a dirty line.  The engine's spin fast-forward uses it
    to wake a sleeping core while everything it cached is still
    intact.  Default: no-op. *)

val line_words : t -> int

val l1_resident : t -> core:int -> addr:int -> bool
(** For tests: is the word's line in [core]'s L1? *)

val to_json : t -> Fscope_util.Json.t
(** Whole-hierarchy checkpoint: every (set, way) slot of every cache
    positionally (tag, LRU stamp, payload), the LRU clocks, the
    directory (sharers + owner per line) and the stats counters.  A
    hierarchy restored from it serves every future access identically
    to the uninterrupted run. *)

val restore : t -> Fscope_util.Json.t -> unit
(** Inverse of {!to_json} into an existing hierarchy of the same
    geometry and core count; raises [Failure] on malformed input. *)

val check_invariants : t -> (string, string) result
(** Coherence invariants, checked by tests after random traces:
    at most one modified copy per line; every L1-resident line is
    L2-resident (inclusivity); directory sharers exactly match L1
    residency.  Returns [Error msg] naming the first violation. *)
