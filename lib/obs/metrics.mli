(** The metrics registry: named counters, log2-bucketed histograms and
    summary gauges.

    One registry per trace.  Handles ([counter], [histogram], [gauge])
    are registered by name on first use and are plain mutable cells,
    so a hot emission site resolves its name once at creation time and
    pays a single memory write per update afterwards.

    This registry subsumes the simulator's scattered [stats] records:
    at the end of a traced run the machine snapshots every legacy
    per-core and cache stat into it under stable names
    ([core<i>/fence_stall_cycles], [mem/l1_hits], [total/...]), so
    sinks and tests read one uniform namespace. *)

type t

type counter
type histogram
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Register (or fetch) the counter called [name].  Raises
    [Invalid_argument] if the name is already bound to a different
    metric kind. *)

val incr : ?by:int -> counter -> unit
val set_counter : counter -> int -> unit
val counter_value : counter -> int

val histogram : t -> string -> histogram
(** Histogram over non-negative ints with power-of-two buckets:
    bucket 0 holds value 0, bucket [i >= 1] holds values in
    [[2{^i-1}, 2{^i})]. *)

val observe : histogram -> int -> unit

val gauge : t -> string -> gauge
(** A per-cycle sampled quantity, kept as summary statistics
    (count / sum / min / max / last) rather than a full series. *)

val gauge_observe : gauge -> int -> unit

val gauge_observe_n : gauge -> int -> times:int -> unit
(** [gauge_observe_n g v ~times] is observationally identical to
    calling [gauge_observe g v] [times] times: the fast-forwarding
    engine uses it to account a frozen gauge over a skipped span of
    cycles in O(1).  No-op when [times <= 0]. *)

type hist_snapshot = {
  count : int;
  sum : int;
  buckets : (int * int) list;  (** (bucket lower bound, count), non-empty buckets only *)
}

val hist_percentile : hist_snapshot -> float -> int
(** [hist_percentile h q] is the nearest-rank [q]-quantile
    ([0. <= q <= 1.]), reported as the lower bound of the bucket the
    rank lands in — the histogram's native resolution.  [0] on an
    empty histogram. *)

val hist_max_floor : hist_snapshot -> int
(** Lower bound of the highest non-empty bucket; [0] when empty. *)

type gauge_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  last : int;
}

type snapshot =
  | Counter_v of int
  | Histogram_v of hist_snapshot
  | Gauge_v of gauge_snapshot

val snapshot : t -> (string * snapshot) list
(** Every registered metric, sorted by name (deterministic output for
    sinks and golden tests). *)

val find_counter : t -> string -> int option
(** The current value of a registered counter, if any. *)

val find_histogram : t -> string -> hist_snapshot option
(** Summary of a registered histogram, if any ([None] when the name is
    unbound or bound to another kind, mirroring {!find_counter}). *)

val find_gauge : t -> string -> gauge_snapshot option
(** Summary of a registered gauge, if any. *)
