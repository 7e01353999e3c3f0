(** A benchmark workload: a compiled program plus a functional
    self-check over the final memory image.

    Every workload validates its own result (queue items claimed
    exactly once, spanning tree well formed, ...), so a memory-model
    or S-Fence bug shows up as a validation failure, not as a silent
    wrong number.

    This module also owns the typed construction surface the registry
    exposes: a {!params} record of the knobs every builder
    understands, and a {!Spec} record describing one registered
    workload (name, tags, documented size parameters, builder). *)

type t = {
  name : string;
  description : string;
  program : Fscope_isa.Program.t;
  validate : Fscope_machine.Machine.result -> (unit, string) result;
}

val run :
  ?obs:Fscope_obs.Trace.t -> Fscope_machine.Config.t -> t -> Fscope_machine.Machine.result
(** Run on the given machine configuration.  Raises [Failure] if the
    run times out.  [obs] is passed through to {!Fscope_machine.Machine.run}. *)

val run_validated :
  ?obs:Fscope_obs.Trace.t -> Fscope_machine.Config.t -> t -> Fscope_machine.Machine.result
(** [run] followed by [validate]; raises [Failure] on a validation
    error.  Use this in tests and in non-speculative experiment runs
    (in-window speculation is modelled without replay, so validation
    is only meaningful when it is off; see DESIGN.md). *)

val addr : t -> string -> int
(** Symbol address in the workload's program. *)

(** {2 Typed construction surface} *)

type params = {
  level : Privwork.level;
      (** Fig. 12 private-workload level for the harness benchmarks
          (dekker/wsq/msn/harris); ignored by the applications. *)
  scope : [ `Class | `Set ];
      (** scope flavour where the workload supports both; ignored by
          dekker/barnes/radiosity (whose scopes are fixed by the
          paper) and nested-scopes. *)
  attempts : int;  (** dekker try-lock attempts. *)
  rounds : int option;
      (** rounds for wsq / wsq-flavored / nested-scopes; [None] =
          the workload's own default. *)
  size : int option;
      (** the workload's principal size knob: per_producer (msn),
          keys_per_thread (harris), nodes (pst/ptc), bodies (barnes),
          patches (radiosity), requests (the server suite); [None] =
          the workload's default. *)
  threads : int option;
      (** total thread/core count where the workload supports it
          (server suite, wsq, msn, spin-barrier); [None] = default. *)
  seed : int;
      (** RNG seed for workloads with generated inputs (the server
          suite's traffic traces; pst/ptc keep their own [?seed]
          default unless driven explicitly). *)
}

val default_params : params
(** Level 3 of {!Privwork.fig12_levels}, class scope, 30 attempts,
    seed 1, default rounds / sizes / threads. *)

(** A first-class description of one registered workload. *)
module Spec : sig
  type param = {
    key : string;  (** which {!params} field drives it, e.g. ["size"] *)
    doc : string;  (** what the knob means for this workload *)
    default : string;  (** rendered default, e.g. ["16"] *)
  }

  type nonrec t = {
    name : string;
    description : string;  (** static — printing it builds nothing *)
    tags : string list;  (** e.g. ["paper"], ["server"], ["queue"] *)
    params : param list;  (** the size knobs this workload honours *)
    build : params -> t;
  }

  val sized : string -> doc:string -> default:string -> param
  val find : string -> t list -> t option
end

type spec = Spec.t

val build : spec -> params -> t
(** [build spec params] is [spec.Spec.build params], after checking
    that [params.size] and [params.rounds] are positive when given:
    otherwise it raises [Invalid_argument] with one line naming the
    flag ([--size] or [--rounds]) and its value. *)
