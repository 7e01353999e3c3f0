(** Whole-machine checkpoints (DESIGN §15).

    The complete simulation state at the top of one engine cycle —
    every core ({!Fscope_cpu.Core.snapshot}), the flat memory image
    and the cache hierarchy — as one JSON document.  Configuration and
    instructions are not stored; the caller rebuilds both and
    {!validate} checks them against the embedded digest.  The engine
    captures at a stop of its stepper, with every core in its
    naive-loop state, so a resumed run is bit-identical to the
    uninterrupted one. *)

type t = {
  cycle : int;  (** the engine resumes at the top of this cycle *)
  digest : string;
      (** MD5 over exec/mem/scope configs and the full program image;
          wall-clock knobs ([max_cycles], [sampling]) are excluded so
          a resume may extend the budget *)
  cores : Fscope_util.Json.t array;
  mem : int array;
  hierarchy : Fscope_util.Json.t;
}

val digest : Config.t -> Fscope_isa.Program.t -> string

val to_json : ?compact:bool -> t -> Fscope_util.Json.t
(** [compact] (default [false]) selects the ["fscope-checkpoint/v3z"]
    sibling: the same document with every shrinkable array — the
    mostly-zero memory image, ARFs and predictor tables, the
    run-heavy cache slot and ROB operand arrays — rewritten through
    the shared packing ({!Fscope_util.Json.pack_arrays}).  Combined
    with the minified rendering {!save} uses for it, ≥5× smaller
    than the pretty plain form at production core counts; {!of_json}
    reads both forms, so resume is bit-identical through either. *)

val of_json : Fscope_util.Json.t -> t
(** Raises [Failure] on a malformed document.  Accepts both the plain
    v3 and compact v3z schemas. *)

val save : ?compact:bool -> t -> file:string -> unit
(** Plain saves pretty-print (readable, diffable); [compact] saves
    minify on top of the array packing. *)

val load : file:string -> t
(** Raises [Failure] on an unreadable or malformed file. *)

val validate : t -> Config.t -> Fscope_isa.Program.t -> unit
(** Raises [Failure] when the checkpoint's digest does not match the
    given config and program. *)
