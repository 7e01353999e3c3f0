(** The workload registry: one uniform construction surface for every
    benchmark in the repo.

    The CLI, the bench harness and the experiment modules all
    enumerate workloads through this table instead of carrying their
    own assoc lists.  Entries are typed {!Workload.spec} records —
    name, description, tags, documented size parameters and a builder
    — so {!find} returns a first-class description instead of a bare
    program thunk, and listing the registry never compiles a program.

    Construction goes through {!find} plus {!Workload.build} (or the
    spec's [build] field directly); there is deliberately no
    raise-on-unknown lookup here — callers that want one compose
    {!find} with {!unknown_message} so the failure text stays
    uniform. *)

type params = Workload.params = {
  level : Privwork.level;
  scope : [ `Class | `Set ];
  attempts : int;
  rounds : int option;
  size : int option;
  threads : int option;
  seed : int;
}
(** Re-export of {!Workload.params} (see there for per-field docs), so
    existing [{ Registry.default_params with ... }] call sites keep
    compiling. *)

val default_params : params
(** Alias of {!Workload.default_params}. *)

type spec = Workload.spec

val all : spec list
(** Every registered workload, in presentation order. *)

val find : string -> spec option
(** Typed lookup: the full spec (tags, documented parameters,
    builder), not a bare thunk. *)

val suggest : ?max:int -> string -> string list
(** Nearest registry names to a misspelt workload (edit distance plus
    substring match), closest first; at most [max] (default 3). *)

val unknown_message : string -> string
(** One-line "unknown workload 'x' — did you mean: ..." message. *)
