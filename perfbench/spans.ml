(* In-memory span recorder for the traced pass.  A span names one call
   into a layer, made from the benchmark's own code: name, start and
   end (monotonic ns), the enclosing span and the point it belongs to.
   Spans stay in memory until [write] at exit.  When recording is off,
   [span] is a plain call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  point : int;
  start_ns : int;
  mutable end_ns : int;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let now_ns = Lockstep.now_ns

let span ~point name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; point; start_ns = now_ns (); end_ns = 0 } in
    spans := s :: !spans;
    stack := id :: !stack;
    let finish () =
      s.end_ns <- now_ns ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let count () = List.length !spans

(* Self time per span name, in seconds: each span's duration minus the
   durations of its direct children. *)
let self_seconds () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0 (Hashtbl.find_opt child s.parent) + (s.end_ns - s.start_ns)))
    !spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        s.end_ns - s.start_ns - Option.value ~default:0 (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace self s.name (Option.value ~default:0 (Hashtbl.find_opt self s.name) + own))
    !spans;
  Hashtbl.fold (fun name ns acc -> (name, float_of_int ns /. 1e9) :: acc) self []
  |> List.sort compare

let total_seconds name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + (s.end_ns - s.start_ns) else acc)
    0 !spans
  |> fun ns -> float_of_int ns /. 1e9

(* One JSON object per line, in start order. *)
let write file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"point\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.parent s.point s.start_ns s.end_ns)
    (List.rev !spans);
  close_out oc
