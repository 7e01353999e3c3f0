(** A minimal JSON reader/writer, and the repo's one JSON writer.

    Every document the repo emits — BENCH_* artefacts, profiles,
    advice, jsonl and Chrome traces, checkpoints — is built as a {!t}
    and rendered by {!render} or {!render_pretty}; nothing else prints
    JSON text.

    Covers the full JSON grammar with one deliberate refinement:
    numbers keep their textual class, so an integer literal parses to
    {!Int} and anything with a fraction or exponent to {!Float}.
    Because of that, [parse (render v) = v] and
    [parse (render_pretty v) = v] hold structurally for every value
    whose floats are finite — the property the trend differ's artefact
    round-trip tests rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} / {!of_file} with an offset-tagged message. *)

val parse : string -> t
(** Parse one JSON value; trailing non-whitespace content is an
    error. *)

val of_file : string -> t
(** [parse] the entire contents of a file. *)

val render : t -> string
(** Compact (single-line) rendering.  A finite float prints as the
    shortest text that reads back as the same float (an integral one
    below 1e15 as ["%.1f"]), so it parses back to the same {!Float};
    a NaN or infinity prints as ["nan"] / ["inf"], which is not
    JSON. *)

val render_pretty : t -> string
(** Two-space-indented multi-line rendering, for artefacts meant to be
    read or diffed by humans (BENCH_* files, plain checkpoints).  Same
    grammar as {!render}: [parse] round-trips both identically. *)

val fixed : int -> float -> t
(** [fixed n x] is the number [Printf.sprintf "%.*f" n x] denotes: [x]
    rounded to [n] decimals as a {!Float}, or an {!Int} when [n = 0].
    Writers use it to keep a value's published precision. *)

val member : string -> t -> t option
(** Field of an object; [None] on a missing key or a non-object. *)

val to_list : t -> t list option
val to_string : t -> string option
val to_bool : t -> bool option

val to_float : t -> float option
(** Numeric value as a float; accepts both {!Int} and {!Float}. *)

(** Exception-raising accessors ([Failure] on a shape mismatch), for
    loaders of artefacts the repo writes itself — checkpoints — where
    a malformed document is a hard error, not a recoverable one. *)

val get : string -> t -> t
val int_exn : t -> int
val str_exn : t -> string
val bool_exn : t -> bool
val list_exn : t -> t list
val int_list_exn : t -> int list
val of_int_list : int list -> t
val of_int_array : int array -> t
val int_array_exn : t -> int array

(** Array packing, the checkpoint compact encoding.  Two rewrites
    compose: large all-integer arrays that are mostly zeros — memory
    images, ARFs, cache and predictor tables — shrink to a
    [{"#z": [length, skip, value, ...]}] marker object (trailing
    zeros implied by the stored length), and any array with runs of
    consecutive structurally-equal elements — cache slot arrays full
    of the same empty line, ROB operand columns full of the same
    sentinel — shrinks to a [{"#r": [count, value, ...]}] run-length
    object, children packed first so runs of identical subtrees
    collapse too.  Only arrays whose packed form is strictly smaller
    are rewritten, so [unpack_arrays (pack_arrays v) = v] for any
    value whose objects avoid the ["#z"] / ["#r"] keys. *)

val pack_arrays : t -> t
(** Rewrite every shrinkable array, recursively. *)

val unpack_arrays : t -> t
(** Exact inverse of {!pack_arrays}; [Failure] on a malformed
    marker. *)
