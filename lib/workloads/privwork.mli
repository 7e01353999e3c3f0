(** The tunable private workload of the paper's harness (§VI-A).

    Between operations on the lock-free structure, each thread
    "performs arithmetic computations on private variables, whose
    accesses do not need to be ordered by fences".  We realise that as
    bursts of integer arithmetic punctuated by stores into a
    per-thread private array at a line-crossing stride.

    The knobs give the Fig. 12 x-axis its shape:
    - [arith]: multiply-accumulate iterations per store — scales the
      computation (and hence total time) of a workload block;
    - [stores]: private stores per block;
    - [span]/[warm]: the working set.  Low workload levels confine the
      walk to a small span that a prologue ([warmup]) pulls into the
      cache, so private stores are fast and a traditional fence loses
      little; higher levels walk cold memory, so every private store
      is a long-latency miss that only a scoped fence can ignore.

    Speedup therefore rises from ~1 (warm, tiny computation) to a peak
    (cold stores, computation still small) and falls again as
    computation dominates — the paper's Fig. 12 trend. *)

type level = {
  arith : int;  (** multiply-accumulate iterations per store *)
  stores : int;  (** private stores per block (>= 0) *)
  span : int;  (** words of private array the walk cycles through; 0 = whole array *)
  warm : bool;  (** emit a prologue that pulls the span into the cache *)
}

val cold : arith:int -> stores:int -> level
(** A cold level: whole-array walk, no warmup. *)

val fig12_levels : level array
(** The six workload settings used as Fig. 12's x-axis, low to high. *)

val globals : threads:int -> ?words:int -> unit -> Fscope_slang.Ast.global_decl list
(** The per-thread private arrays ["priv0"] ... ["priv<n-1>"]. *)

val warm_array : name:string -> words:int -> Fscope_slang.Ast.block
(** A load walk over a named global array (one load per line), used by
    harnesses to pre-warm small bookkeeping arrays so that only the
    workload level controls out-of-scope misses. *)

val warmup : thread:int -> level:level -> Fscope_slang.Ast.block
(** The per-thread prologue: declares the walk-cursor local
    ("pw_idx"), and for [warm] levels additionally pulls the span
    into the cache.  Every thread that uses [block] must emit this
    once at thread start. *)

val block :
  thread:int -> level:level -> ?words:int -> unique:string -> unit -> Fscope_slang.Ast.block
(** One workload block for [thread].  [unique] disambiguates local
    names when a thread uses several blocks. *)
