type t = {
  name : string;
  description : string;
  program : Fscope_isa.Program.t;
  validate : Fscope_machine.Machine.result -> (unit, string) result;
}

let run ?obs config t =
  let result = Fscope_machine.Machine.run ?obs config t.program in
  if result.Fscope_machine.Machine.timed_out then
    failwith (Printf.sprintf "workload %s: timed out" t.name);
  result

let run_validated ?obs config t =
  let result = run ?obs config t in
  match t.validate result with
  | Ok () -> result
  | Error msg -> failwith (Printf.sprintf "workload %s: validation failed: %s" t.name msg)

let addr t name = Fscope_isa.Program.address_of t.program name

(* ------------------------------------------------------------------ *)
(* Typed construction surface: one params record every builder
   understands, and a spec record describing a registered workload.    *)
(* ------------------------------------------------------------------ *)

type params = {
  level : Privwork.level;
  scope : [ `Class | `Set ];
  attempts : int;
  rounds : int option;
  size : int option;
  threads : int option;
  seed : int;
}

let default_params =
  {
    level = Privwork.fig12_levels.(2);
    scope = `Class;
    attempts = 30;
    rounds = None;
    size = None;
    threads = None;
    seed = 1;
  }

module Spec = struct
  type param = {
    key : string;
    doc : string;
    default : string;
  }

  type nonrec t = {
    name : string;
    description : string;
    tags : string list;
    params : param list;
    build : params -> t;
  }

  let sized key ~doc ~default = { key; doc; default }
  let find name specs = List.find_opt (fun s -> s.name = name) specs
end

type spec = Spec.t

let build (s : spec) params =
  let positive flag = function
    | Some n when n <= 0 ->
      invalid_arg (Printf.sprintf "--%s must be positive, got %d" flag n)
    | _ -> ()
  in
  positive "size" params.size;
  positive "rounds" params.rounds;
  s.Spec.build params
