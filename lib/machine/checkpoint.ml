(* Whole-machine checkpoints: the complete simulation state at the top
   of one engine cycle, serialized as a single JSON document.

   A checkpoint never stores instructions or configuration — both are
   rebuilt by the caller (the CLI re-derives them from the workload
   registry) and validated against a digest of the machine-defining
   parts (pipeline / memory / scope configs plus the full program
   image).  Wall-clock knobs — [max_cycles], [shard_domains],
   [sampling] — are deliberately outside the digest: resuming with a
   longer cycle budget is the point of checkpointing, and engine
   choice never changes results.

   The per-core payloads are produced by {!Fscope_cpu.Core.snapshot}.
   No engine schedule is stored: captures happen at a stop, where
   every core is in its naive-loop state, so the engine re-derives its
   schedule from the restored cores (see Machine). *)

module Json = Fscope_util.Json
module Program = Fscope_isa.Program

type t = {
  cycle : int;
  digest : string;
  cores : Json.t array;
  mem : int array;
  hierarchy : Json.t;
}

let digest (config : Config.t) (program : Program.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (config.Config.exec, config.Config.mem, config.Config.mem_model,
           config.Config.scope, program)
          []))

(* The compact sibling ("v3z") applies {!Json.pack_arrays} to the whole
   document: memory images, ARFs, rename maps, predictor tables and
   cache arrays are mostly zeros at production core counts, and the
   shared zero-run elision dedups them all through one transform.  The
   schema string changes with the representation so a reader that
   predates packing fails loudly instead of misparsing; {!of_json}
   accepts both and unpacks before field extraction, so the two forms
   are interchangeable everywhere downstream. *)
(* v3 stores each core's CPI table with 11 leaves; v2 stored 15 (four
   fence-stall leaves that were never charged), so v2 documents are
   refused rather than re-indexed.  v1 documents, which could hold
   stall spans pre-charged past their cycle, were refused already. *)
let schema_plain = "fscope-checkpoint/v3"
let schema_compact = "fscope-checkpoint/v3z"

let to_json ?(compact = false) t =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str (if compact then schema_compact else schema_plain));
        ("cycle", Json.Int t.cycle);
        ("digest", Json.Str t.digest);
        ("cores", Json.Arr (Array.to_list t.cores));
        ("mem", Json.of_int_array t.mem);
        ("hierarchy", t.hierarchy);
      ]
  in
  if compact then Json.pack_arrays doc else doc

let of_json j =
  let j =
    match Json.get "schema" j with
    | Json.Str s when String.equal s schema_plain -> j
    | Json.Str s when String.equal s schema_compact -> Json.unpack_arrays j
    | _ -> failwith "checkpoint: unknown schema"
  in
  let cycle = Json.int_exn (Json.get "cycle" j) in
  if cycle < 0 then failwith "checkpoint: negative cycle";
  {
    cycle;
    digest = Json.str_exn (Json.get "digest" j);
    cores = Array.of_list (Json.list_exn (Json.get "cores" j));
    mem = Json.int_array_exn (Json.get "mem" j);
    hierarchy = Json.get "hierarchy" j;
  }

(* Plain checkpoints pretty-print (they are the readable, diffable
   form); the compact sibling is minified on top of the array
   packing. *)
let save ?(compact = false) t ~file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let doc = to_json ~compact t in
      output_string oc (if compact then Json.render doc else Json.render_pretty doc);
      output_char oc '\n')

let load ~file =
  match Json.of_file file with
  | j -> of_json j
  | exception Sys_error msg -> failwith (Printf.sprintf "cannot read checkpoint: %s" msg)
  | exception Json.Parse_error msg ->
    failwith (Printf.sprintf "malformed checkpoint %s: %s" file msg)

(* Refuse to restore into a machine the checkpoint was not taken
   from. *)
let validate t (config : Config.t) program =
  if not (String.equal t.digest (digest config program)) then
    failwith
      "checkpoint: config/program digest mismatch (different workload or machine \
       parameters)"
