(** Synchronisation kernel for the domain-sharded engine.

    The sharded {!Machine} stepper partitions one machine's cores
    across OCaml domains and runs the three-phase step protocol with a
    {!barrier} at every phase boundary; the steps that touch state
    shared between cores all run on one domain between two barriers
    (DESIGN.md §13), so the barrier is the only ordering the engine
    needs.

    Waits are hybrid: a bounded spin with [Domain.cpu_relax], then a
    mutex/condition block, so the engine stays live (if slow) on hosts
    with fewer hardware threads than shards. *)

type t

val create : domains:int -> t

val barrier : t -> unit
(** Generation barrier across all [domains].  Raises the poison
    exception instead of deadlocking if any shard failed. *)

val barriers : t -> int
(** Number of completed barrier generations so far — the lockstep
    traffic the elision machinery exists to cut.  A plain monotonic
    counter, not a synchronisation primitive. *)

val poison : t -> exn -> unit
(** Record the first failure and wake every waiter; subsequent
    {!barrier}/{!check} calls in any domain re-raise it. *)

val check : t -> unit
(** Re-raise the poison exception, if any. *)
