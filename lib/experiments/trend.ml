(* Bench-trajectory differ: load two generations of the BENCH_*
   artefact family, line their points up, and report which metrics
   moved — and whether any moved past a regression threshold.

   Every artefact kind (engine, profile, server) is reduced to the
   same shape: a list of points, each a stable key ("server/<workload>/
   <config>") carrying named metrics with a better-direction and a
   gate class.  Deterministic metrics (simulated cycles, requests per
   kilocycle, fence share, stall tails) gate at [threshold]; wall-clock
   metrics are advisory unless the caller supplies [wall_threshold],
   because two runners legitimately differ in speed.  Gauge summaries
   never gate — a deeper queue is context, not a regression by itself.

   Loaders exist only for the schema versions the bench emits today
   (engine v4, profile v2, server v5); any other version is rejected as
   an unknown schema, so a stale baseline fails loudly instead of
   diffing against zero-filled columns.

   Two artefacts are comparable only when their "quick" flags agree
   (both absent counts as agreement): a quick run diffed against a
   full-size artefact produces informational rows but can never fail
   the gate, since every delta would be a size artefact. *)

module Json = Fscope_util.Json
module Table = Fscope_util.Table

type direction = Higher_better | Lower_better

type gate = Gate_always | Gate_wall | Gate_never

type metric = {
  m_name : string;
  m_value : float;
  m_dir : direction;
  m_gate : gate;
}

type point = {
  p_key : string;
  p_metrics : metric list;
}

type artefact = {
  a_file : string;
  a_schema : string;
  a_quick : bool option;
  a_points : point list;
}

let load_error file fmt =
  Printf.ksprintf (fun msg -> failwith (Printf.sprintf "%s: %s" file msg)) fmt

(* ------------------------------------------------------------------ *)
(* Schema loaders                                                      *)

let num ~file ~ctx j key =
  match Option.bind (Json.member key j) Json.to_float with
  | Some v -> v
  | None -> load_error file "%s: missing numeric field %S" ctx key

let num_opt j key = Option.bind (Json.member key j) Json.to_float

let str ~file ~ctx j key =
  match Option.bind (Json.member key j) Json.to_string with
  | Some v -> v
  | None -> load_error file "%s: missing string field %S" ctx key

let arr j key = Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list)

let quick_flag j = Option.bind (Json.member "quick" j) Json.to_bool

let metric ?(gate = Gate_always) ~dir name value =
  { m_name = name; m_value = value; m_dir = dir; m_gate = gate }

let load_engine ~file j =
  let artefact_points =
    List.map
      (fun a ->
        let name = str ~file ~ctx:"artefacts[]" a "name" in
        (* A self-skipped artefact ("skipped" marker, e.g.
           jobs-scaling on a 1-CPU host) records near-zero seconds that
           no later run can "regress" against — its wall-clock is
           context, never a gate. *)
        let skipped =
          Option.value ~default:false
            (Option.bind (Json.member "skipped" a) Json.to_bool)
        in
        {
          p_key = "artefact/" ^ name;
          p_metrics =
            [ metric
                ~gate:(if skipped then Gate_never else Gate_wall)
                ~dir:Lower_better "seconds"
                (num ~file ~ctx:name a "seconds") ];
        })
      (arr j "artefacts")
  in
  let sampled_points =
    match Json.member "sampled_sim" j with
    | None -> []
    | Some sm ->
      let ctx = "sampled_sim" in
      [
        {
          p_key = "engine/sampled-sim";
          p_metrics =
            [
              metric ~dir:Lower_better "cycles_err_pct" (num ~file ~ctx sm "cycles_err_pct");
              metric ~dir:Lower_better "fence_err_pp" (num ~file ~ctx sm "fence_err_pp");
              metric ~gate:Gate_wall ~dir:Lower_better "detailed_seconds"
                (num ~file ~ctx sm "detailed_seconds");
              metric ~gate:Gate_wall ~dir:Lower_better "sampled_seconds"
                (num ~file ~ctx sm "sampled_seconds");
              metric ~gate:Gate_wall ~dir:Higher_better "speedup"
                (num ~file ~ctx sm "speedup");
            ];
        };
      ]
  in
  let engine_points =
    List.map
      (fun r ->
        let ctx = "engine_vs_naive[]" in
        let w = str ~file ~ctx r "workload" and c = str ~file ~ctx r "config" in
        {
          p_key = Printf.sprintf "engine/%s/%s" w c;
          p_metrics =
            [
              metric ~dir:Lower_better "sim_cycles" (num ~file ~ctx r "sim_cycles");
              metric ~gate:Gate_wall ~dir:Lower_better "engine_seconds"
                (num ~file ~ctx r "engine_seconds");
              metric ~gate:Gate_wall ~dir:Lower_better "naive_seconds"
                (num ~file ~ctx r "naive_seconds");
              metric ~gate:Gate_wall ~dir:Higher_better "speedup"
                (num ~file ~ctx r "speedup");
            ];
        })
      (arr j "engine_vs_naive")
  in
  let totals =
    match num_opt j "engine_total_seconds" with
    | None -> []
    | Some s ->
      [
        {
          p_key = "engine/total";
          p_metrics = [ metric ~gate:Gate_wall ~dir:Lower_better "engine_seconds" s ];
        };
      ]
  in
  artefact_points @ sampled_points @ engine_points @ totals

(* One profile object is Obs.Profile.json output, which stores no
   fence share: it is recomputed here from the CPI leaves. *)
let load_profile ~file j =
  List.map
    (fun p ->
      let ctx = "profiles[]" in
      let label = str ~file ~ctx p "label" and config = str ~file ~ctx p "config" in
      let active = num ~file ~ctx p "active_cycles" in
      let fence =
        match Json.member "cpi" p with
        | Some (Json.Obj fields) ->
          List.fold_left
            (fun acc (k, v) ->
              if String.length k >= 6 && String.sub k 0 6 = "fence_" then
                acc +. Option.value ~default:0.0 (Json.to_float v)
              else acc)
            0.0 fields
        | _ -> load_error file "profile %s/%s: missing cpi object" label config
      in
      {
        p_key = Printf.sprintf "profile/%s/%s" label config;
        p_metrics =
          [
            metric ~dir:Lower_better "cycles" (num ~file ~ctx p "cycles");
            metric ~dir:Lower_better "active_cycles" active;
            metric ~dir:Lower_better "fence_share_pct"
              (if active <= 0.0 then 0.0 else 100.0 *. fence /. active);
          ];
      })
    (arr j "profiles")

let load_server ~file j =
  List.map
    (fun r ->
      let ctx = "rows[]" in
      let w = str ~file ~ctx r "workload" and c = str ~file ~ctx r "config" in
      let gauges =
        match Json.member "gauge" r with
        | Some (Json.Obj _ as g) ->
          let name =
            Option.value ~default:"gauge"
              (Option.bind (Json.member "name" g) Json.to_string)
          in
          List.filter_map
            (fun key ->
              Option.map
                (fun v ->
                  metric ~gate:Gate_never ~dir:Lower_better
                    (Printf.sprintf "%s_%s" name key) v)
                (num_opt g key))
            [ "p50"; "p99"; "max" ]
        | _ -> []
      in
      (* A row with no latency samples (a workload without markers)
         carries zeros there — a later generation filling them in must
         not read as a regression from 0. *)
      let lat_gate =
        if Option.value ~default:0.0 (num_opt r "latency_samples") > 0.0 then
          Gate_always
        else Gate_never
      in
      {
        p_key = Printf.sprintf "server/%s/%s" w c;
        p_metrics =
          [
            metric ~dir:Higher_better "requests_per_kcycle"
              (num ~file ~ctx r "requests_per_kcycle");
            metric ~dir:Lower_better "fence_share_pct"
              (num ~file ~ctx r "fence_share_pct");
            metric ~dir:Lower_better "stall_p99" (num ~file ~ctx r "stall_p99");
            metric ~gate:lat_gate ~dir:Lower_better "latency_p99"
              (num ~file ~ctx r "latency_p99");
            metric ~dir:Lower_better "sim_cycles" (num ~file ~ctx r "sim_cycles");
          ]
          @ gauges;
      })
    (arr j "rows")

let known_schemas =
  [
    ("fence-scoping/bench-engine/v4", load_engine);
    ("fence-scoping/bench-profile/v2", load_profile);
    ("fence-scoping/bench-server/v5", load_server);
  ]

let load ~file j =
  let schema =
    match Option.bind (Json.member "schema" j) Json.to_string with
    | Some s -> s
    | None -> load_error file "no \"schema\" field — not a BENCH artefact"
  in
  let loader =
    match List.assoc_opt schema known_schemas with
    | Some l -> l
    | None -> load_error file "unknown schema %S" schema
  in
  { a_file = file; a_schema = schema; a_quick = quick_flag j; a_points = loader ~file j }

let load_file file =
  let j =
    try Json.of_file file
    with Json.Parse_error msg -> load_error file "JSON parse error %s" msg
  in
  load ~file j

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)

type delta = {
  d_key : string;
  d_metric : string;
  d_base : float;
  d_cur : float;
  d_worse_pct : float;
      (* signed percent change toward the metric's worse direction:
         positive means the current run is worse *)
  d_gate : gate;
}

type verdict = {
  v_comparable : bool;
  v_deltas : delta list;
  v_regressions : delta list;
  v_missing : string list;  (* point keys in the baseline only *)
  v_added : string list;  (* point keys in the current run only *)
}

let worse_pct ~dir ~base ~cur =
  let denom = if Float.abs base > 0.0 then Float.abs base else 1.0 in
  let raw =
    match dir with
    | Lower_better -> (cur -. base) /. denom
    | Higher_better -> (base -. cur) /. denom
  in
  100.0 *. raw

let diff ?(threshold = 5.0) ?wall_threshold ~baseline ~current () =
  let comparable = baseline.a_quick = current.a_quick in
  let find points key = List.find_opt (fun p -> p.p_key = key) points in
  let deltas = ref [] in
  List.iter
    (fun bp ->
      match find current.a_points bp.p_key with
      | None -> ()
      | Some cp ->
        List.iter
          (fun bm ->
            match List.find_opt (fun m -> m.m_name = bm.m_name) cp.p_metrics with
            | None -> ()
            | Some cm ->
              deltas :=
                {
                  d_key = bp.p_key;
                  d_metric = bm.m_name;
                  d_base = bm.m_value;
                  d_cur = cm.m_value;
                  d_worse_pct =
                    worse_pct ~dir:bm.m_dir ~base:bm.m_value ~cur:cm.m_value;
                  d_gate = bm.m_gate;
                }
                :: !deltas)
          bp.p_metrics)
    baseline.a_points;
  let deltas = List.rev !deltas in
  let regressions =
    if not comparable then []
    else
      List.filter
        (fun d ->
          match d.d_gate with
          | Gate_always -> d.d_worse_pct > threshold
          | Gate_wall -> (
            match wall_threshold with
            | Some t -> d.d_worse_pct > t
            | None -> false)
          | Gate_never -> false)
        deltas
  in
  let keys points = List.map (fun p -> p.p_key) points in
  let missing =
    List.filter (fun k -> find current.a_points k = None) (keys baseline.a_points)
  in
  let added =
    List.filter (fun k -> find baseline.a_points k = None) (keys current.a_points)
  in
  {
    v_comparable = comparable;
    v_deltas = deltas;
    v_regressions = regressions;
    v_missing = missing;
    v_added = added;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let cell v =
  if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let flag ~comparable d =
  if not comparable then "n/c"
  else if d.d_gate = Gate_never then "info"
  else if d.d_gate = Gate_wall then "wall"
  else ""

let table ~verdict ~baseline ~current =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Bench trajectory — %s vs %s%s" baseline.a_file current.a_file
           (if verdict.v_comparable then ""
            else "  [quick flags differ: informational only]"))
      ~header:[ "point"; "metric"; "baseline"; "current"; "worse%"; "note" ]
  in
  List.iter
    (fun d ->
      let regressed = List.memq d verdict.v_regressions in
      Table.add_row t
        [
          d.d_key;
          d.d_metric;
          cell d.d_base;
          cell d.d_cur;
          Printf.sprintf "%+.1f" d.d_worse_pct;
          (if regressed then "REGRESSION" else flag ~comparable:verdict.v_comparable d);
        ])
    verdict.v_deltas;
  List.iter
    (fun k -> Table.add_row t [ k; "(point missing from current run)"; ""; ""; ""; "" ])
    verdict.v_missing;
  List.iter
    (fun k -> Table.add_row t [ k; "(new point, no baseline)"; ""; ""; ""; "" ])
    verdict.v_added;
  t

let summary_line ~verdict ~baseline ~current =
  Printf.sprintf "%s -> %s: %d metrics compared, %d regressions%s%s" baseline.a_file
    current.a_file
    (List.length verdict.v_deltas)
    (List.length verdict.v_regressions)
    (if verdict.v_comparable then "" else " (not comparable: quick flags differ)")
    (match (verdict.v_missing, verdict.v_added) with
    | [], [] -> ""
    | m, a -> Printf.sprintf ", %d points missing, %d new" (List.length m) (List.length a))
