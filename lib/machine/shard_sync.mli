(** Synchronisation kernel for the domain-sharded engine.

    The sharded {!Machine} stepper partitions one machine's cores
    across OCaml domains and runs the three-phase step protocol with a
    {!barrier} at every phase boundary.  Within a phase, each shard
    classifies its owned cores' steps as ORDERED (may touch state
    shared between cores: memory writes, cache directory, wakes,
    traced events) or FREE (provably commutes with everything else in
    the phase); ordered steps execute at their exact global
    ascending-core-order turn via the cursor protocol below, free
    steps run immediately.  See DESIGN.md §13 for the classification
    rules and the bit-identity argument.

    All waits are hybrid: a bounded spin with [Domain.cpu_relax],
    then a mutex/condition block, so the engine stays live (if slow)
    on hosts with fewer hardware threads than shards. *)

type t

val create : domains:int -> cores:int -> t

val barrier : t -> unit
(** Generation barrier across all [domains].  Raises the poison
    exception instead of deadlocking if any shard failed. *)

val set_cursor : t -> shard:int -> round:int -> int -> unit
(** Publish [shard]'s lowest core index with an unfinished ORDERED
    step in phase [round] ([cores] = none pending, i.e. a sentinel one
    past the last core).  Must be called once right after classifying
    a phase (before executing any of its steps) and again after each
    completed ordered step.  [round] must strictly increase from one
    phase to the next, in lockstep across shards (the engine uses
    {!barriers}, read between two barriers) — it disambiguates a fresh
    cursor from a stale previous-phase value, which is what makes a
    post-classification barrier unnecessary. *)

val await_prefix : t -> shard:int -> round:int -> int -> unit
(** Block until every other shard's cursor for [round] has passed the
    given core index — i.e. no other shard still has an ordered step
    at or before it.  Together with ascending iteration inside each
    shard, this hands the global order token to exactly one ordered
    step at a time; the shard owning the lowest pending ordered core
    can always proceed, so the protocol cannot deadlock. *)

val barriers : t -> int
(** Number of completed barrier generations so far — the lockstep
    traffic the elision machinery exists to cut.  A plain monotonic
    counter, not a synchronisation primitive: no generation can
    complete before every shard arrives, so between two barriers every
    shard reads the same value. *)

val poison : t -> exn -> unit
(** Record the first failure and wake every waiter; subsequent
    {!barrier}/{!await_prefix}/{!check} calls in any domain re-raise
    it. *)

val check : t -> unit
(** Re-raise the poison exception, if any. *)
