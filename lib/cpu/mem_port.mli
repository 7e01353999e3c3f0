(** The core's window onto the memory system.

    A [Mem_port.t] is the only thing a {!Core} holds about memory: a
    typed transaction interface (read / write / read-modify-write,
    each answered with the absolute cycle at which the access
    completes) plus data-plane access to the flat backing store.  The
    machine layer constructs the port from the concrete cache
    hierarchy and the shared memory image; the core never sees either,
    which is the seam alternative memory models (sharded backends,
    trace-driven replay, idealized memory) plug into.

    Contracts the core relies on:
    - [issue] both *simulates* the access (mutating whatever timing
      state the backend keeps) and returns its completion cycle, which
      is always strictly greater than [now];
    - [load]/[store] touch only the data plane and are exact-cycle
      operations: the machine calls them at the completion points the
      port returned, which is what gives the simulated machine its
      relaxed visibility order;
    - addresses passed to [issue]/[load]/[store] are in bounds (the
      core checks [in_bounds] first and handles wrong-path garbage
      addresses itself). *)

type kind =
  | Read
  | Write
  | Rmw  (** compare-and-swap: needs exclusive ownership, like a write *)

type t

val create :
  size:int ->
  issue:(core:int -> kind -> addr:int -> now:int -> int) ->
  level:(unit -> Fscope_obs.Event.mem_outcome) ->
  load:(addr:int -> int) ->
  store:(addr:int -> value:int -> unit) ->
  t
(** [size] is the word count of the backing store (bounds checks);
    [issue ~core kind ~addr ~now] simulates one access issued at cycle
    [now] and returns its completion cycle, and [level ()] the level
    that served the last access issued (L1 hit / L2 hit / L2 miss — the
    cycle-accounting profiler charges head-of-ROB memory stalls to
    that level).  Split this way, an access allocates nothing. *)

val make :
  size:int ->
  issue:
    (core:int -> kind -> addr:int -> now:int -> int * Fscope_obs.Event.mem_outcome) ->
  load:(addr:int -> int) ->
  store:(addr:int -> value:int -> unit) ->
  t
(** {!create} from an [issue] that answers completion cycle and level
    together: a convenience for test doubles and drivers outside the
    machine, which pay a tuple per access. *)

val issue : t -> core:int -> kind -> addr:int -> now:int -> int
(** Simulate an access; its completion cycle. *)

val last_level : t -> Fscope_obs.Event.mem_outcome
(** The level that served the last access {!issue}d. *)

val load : t -> addr:int -> int
val store : t -> addr:int -> value:int -> unit
val in_bounds : t -> addr:int -> bool
