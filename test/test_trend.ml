(* Trend-differ tests: the JSON layer round-trips, every committed
   baseline artefact loads under its schema, self-diff is clean, an
   injected regression trips the gate, and mismatched quick flags turn
   the gate off. *)

module Json = Fscope_util.Json
module Trend = Fscope_experiments.Trend

(* ------------------------------------------------------------------ *)
(* Locating the committed baselines.  dune copies the source tree into
   _build/default, so walking up from the test's cwd finds the
   bench/baseline directory either in the sandbox or in the source
   checkout. *)

let rec find_dir dir candidate =
  let path = Filename.concat dir candidate in
  if Sys.file_exists path && Sys.is_directory path then Some path
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_dir parent candidate

let baseline_dir () =
  match find_dir (Sys.getcwd ()) (Filename.concat "bench" "baseline") with
  | Some d -> d
  | None -> Alcotest.fail "bench/baseline not found above the test cwd"

let baseline_files () =
  let dir = baseline_dir () in
  Sys.readdir dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

(* ------------------------------------------------------------------ *)
(* JSON layer                                                          *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "[1,-2,3.5,1e3]";
      "{\"a\":{\"b\":[true,false,null]},\"s\":\"he\\\"llo\\n\\u00e9\"}";
      "{\"big\":123456789012345,\"neg\":-0.125}";
      "[]";
      "{}";
    ]
  in
  List.iter
    (fun s ->
      let v = Json.parse s in
      Alcotest.(check bool)
        (Printf.sprintf "parse(render(%s)) stable" s)
        true
        (Json.parse (Json.render v) = v))
    cases;
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad))
    [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "1 2" ]

(* Random documents for the writer: floats from arbitrary finite bit
   patterns and integral floats around 2^40..2^70 (where "%.17g"
   prints no exponent and no point), and strings (keys too) leaning on
   the bytes a writer must escape or pass through — quotes,
   backslashes, control bytes and raw non-ASCII bytes. *)
let gen_json =
  let open QCheck2.Gen in
  let str =
    string_size
      ~gen:
        (oneof
           [
             oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\031'; '\127'; '\200'; '\255' ];
             char;
           ])
      (int_bound 10)
  in
  let finite =
    map
      (fun bits ->
        let f = Int64.float_of_bits bits in
        if Float.is_finite f then f else Int64.to_float bits)
      int64
  in
  let integral =
    map
      (fun (m, e) -> Float.round (Float.ldexp m e))
      (pair (float_range (-1.) 1.) (int_range 40 70))
  in
  let atom =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int;
        map (fun f -> Json.Float f) (oneof [ finite; integral; float_range (-1e6) 1e6 ]);
        map (fun s -> Json.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then atom
         else
           frequency
             [
               (2, atom);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (n / 4)))) );
             ])

(* Structural equality, except that floats must match bit for bit:
   [=] would let -0.0 stand for 0.0. *)
let rec same a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys ->
    List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
  | _ -> a = b

let prop_json_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"json parse inverts render and render_pretty"
    ~print:Json.render gen_json (fun v ->
      same (Json.parse (Json.render v)) v && same (Json.parse (Json.render_pretty v)) v)

(* [Json.fixed n x] is what a reader got from the text "%.nf" prints,
   and it survives rendering: a writer that moves from printf to
   [fixed] keeps the values its documents parse to. *)
let prop_fixed_matches_printf =
  QCheck2.Test.make ~count:1000 ~name:"json fixed reads as printf's %.nf"
    ~print:QCheck2.Print.(pair int float)
    QCheck2.Gen.(
      pair (int_range 0 6) (oneof [ float_range (-1e6) 1e6; float_range (-1e14) 1e14 ]))
    (fun (n, x) ->
      let v = Json.fixed n x in
      Json.parse (Printf.sprintf "%.*f" n x) = v && same (Json.parse (Json.render v)) v)

let test_committed_artefacts_roundtrip () =
  let files = baseline_files () in
  Alcotest.(check (list string))
    "committed baselines present (engine, profile, server)"
    [ "BENCH_engine.json"; "BENCH_profile.json"; "BENCH_server.json" ]
    (List.map Filename.basename files);
  List.iter
    (fun file ->
      let v = Json.of_file file in
      Alcotest.(check bool)
        (Printf.sprintf "%s JSON round-trips" (Filename.basename file))
        true
        (Json.parse (Json.render v) = v);
      let a = Trend.load ~file v in
      Alcotest.(check bool)
        (Printf.sprintf "%s loads points" (Filename.basename file))
        true
        (a.Trend.a_points <> []))
    files

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)

let load_server_baseline () =
  let file =
    Filename.concat (baseline_dir ()) "BENCH_server.json"
  in
  (file, Json.of_file file)

let test_self_diff_clean () =
  List.iter
    (fun file ->
      let a = Trend.load_file file in
      let v = Trend.diff ~baseline:a ~current:a () in
      Alcotest.(check bool)
        (Printf.sprintf "%s self-diff comparable" (Filename.basename file))
        true v.Trend.v_comparable;
      Alcotest.(check int)
        (Printf.sprintf "%s self-diff regression-free" (Filename.basename file))
        0
        (List.length v.Trend.v_regressions);
      Alcotest.(check bool)
        (Printf.sprintf "%s self-diff compared something" (Filename.basename file))
        true
        (v.Trend.v_deltas <> [] && v.Trend.v_missing = [] && v.Trend.v_added = []))
    (baseline_files ())

(* Rewrite one field of the first row of a parsed server artefact. *)
let tamper_first_row field f j =
  let map_obj g = function Json.Obj fields -> Json.Obj (g fields) | v -> v in
  map_obj
    (List.map (fun (k, v) ->
         if k <> "rows" then (k, v)
         else
           match v with
           | Json.Arr (row0 :: rest) ->
             ( k,
               Json.Arr
                 (map_obj
                    (List.map (fun (rk, rv) -> if rk = field then (rk, f rv) else (rk, rv)))
                    row0
                 :: rest) )
           | v -> (k, v)))
    j

let double = function
  | Json.Int n -> Json.Int (2 * n)
  | Json.Float x -> Json.Float (2.0 *. x)
  | v -> v

let test_injected_regression_gates () =
  let file, j = load_server_baseline () in
  let baseline = Trend.load ~file j in
  let current = Trend.load ~file:"tampered" (tamper_first_row "sim_cycles" double j) in
  let v = Trend.diff ~threshold:5.0 ~baseline ~current () in
  Alcotest.(check bool) "doubled sim_cycles trips the gate" true
    (v.Trend.v_regressions <> []);
  Alcotest.(check bool) "the regression names the tampered metric" true
    (List.exists
       (fun (d : Trend.delta) -> d.Trend.d_metric = "sim_cycles" && d.Trend.d_worse_pct > 99.0)
       v.Trend.v_regressions)

let test_gauge_metrics_never_gate () =
  let file, j = load_server_baseline () in
  let baseline = Trend.load ~file j in
  let tampered =
    tamper_first_row "gauge"
      (function
        | Json.Obj fields ->
          Json.Obj (List.map (fun (k, v) -> if k = "p99" then (k, double v) else (k, v)) fields)
        | v -> v)
      j
  in
  let current = Trend.load ~file:"tampered" tampered in
  let v = Trend.diff ~threshold:5.0 ~baseline ~current () in
  Alcotest.(check (list string)) "gauge summaries are context, not regressions" []
    (List.map (fun (d : Trend.delta) -> d.Trend.d_metric) v.Trend.v_regressions);
  Alcotest.(check bool) "the gauge delta is still reported" true
    (List.exists
       (fun (d : Trend.delta) ->
         d.Trend.d_gate = Trend.Gate_never && d.Trend.d_worse_pct > 99.0)
       v.Trend.v_deltas)

let test_quick_mismatch_disarms_gate () =
  let file, j = load_server_baseline () in
  let baseline = Trend.load ~file j in
  let full =
    match tamper_first_row "sim_cycles" double j with
    | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = "quick" then (k, Json.Bool false) else (k, v)) fields)
    | v -> v
  in
  let current = Trend.load ~file:"full-size" full in
  let v = Trend.diff ~threshold:5.0 ~baseline ~current () in
  Alcotest.(check bool) "quick-vs-full is not comparable" false v.Trend.v_comparable;
  Alcotest.(check int) "and can never regress" 0 (List.length v.Trend.v_regressions);
  Alcotest.(check bool) "deltas still rendered for information" true
    (v.Trend.v_deltas <> [])

let test_wall_threshold_arms_wall_metrics () =
  let file =
    Filename.concat (baseline_dir ()) "BENCH_engine.json"
  in
  let j = Json.of_file file in
  let baseline = Trend.load ~file j in
  let tampered =
    match j with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k = "engine_total_seconds" then (k, double v) else (k, v))
           fields)
    | v -> v
  in
  let current = Trend.load ~file:"slow" tampered in
  let off = Trend.diff ~baseline ~current () in
  Alcotest.(check int) "wall metrics advisory by default" 0
    (List.length off.Trend.v_regressions);
  let on = Trend.diff ~wall_threshold:50.0 ~baseline ~current () in
  Alcotest.(check bool) "armed by --wall-threshold" true
    (on.Trend.v_regressions <> [])

(* A v1 profile document: a well-formed artefact of a schema the
   bench no longer emits, so it has no loader. *)
let profile_v1 =
  {|{"schema": "fence-scoping/bench-profile/v1", "profiles": [
     {"schema": "fence-scoping/profile/v1", "label": "dekker", "config": "sfence",
      "cores": 2, "cycles": 9210, "timed_out": false, "active_cycles": 17686,
      "cpi": {"commit": 646, "fence_sb_scoped": 798}}]}|}

let test_unknown_schema_rejected () =
  (match Trend.load ~file:"x" (Json.parse "{\"schema\":\"fence-scoping/unheard-of/v9\"}") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown schema accepted");
  (match Trend.load ~file:"v1" (Json.parse profile_v1) with
  | exception Failure msg ->
    Alcotest.(check string) "names the schema"
      "v1: unknown schema \"fence-scoping/bench-profile/v1\"" msg
  | _ -> Alcotest.fail "retired profile v1 schema accepted");
  List.iter
    (fun schema ->
      match Trend.load ~file:"x" (Json.Obj [ ("schema", Json.Str schema) ]) with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "retired schema %s accepted" schema)
    [ "fence-scoping/bench-engine/v3"; "fence-scoping/bench-server/v4" ];
  match Trend.load ~file:"x" (Json.parse "{\"rows\":[]}") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "schema-less artefact accepted"

(* ------------------------------------------------------------------ *)
(* Robustness: a damaged baseline is bad input, never a crash          *)

(* One damage to a committed artefact: its text cut at an offset or
   with one byte replaced, or the [n]-th object member (preorder,
   counted modulo the members there are) dropped or given another
   type. *)
type damage =
  | Cut of int
  | Byte of int * char
  | Drop of int
  | Retype of int * Json.t

let print_damage = function
  | Cut k -> Printf.sprintf "cut at %d" k
  | Byte (k, c) -> Printf.sprintf "byte %d := %C" k c
  | Drop n -> Printf.sprintf "drop member %d" n
  | Retype (n, v) -> Printf.sprintf "member %d := %s" n (Json.render v)

let gen_damage =
  let open QCheck2.Gen in
  oneof
    [
      map (fun k -> Cut k) nat;
      map2
        (fun k c -> Byte (k, c))
        nat
        (oneofl [ '"'; '{'; '}'; ']'; ','; ':'; '0'; '-'; 'x'; ' ' ]);
      map (fun n -> Drop n) nat;
      map2
        (fun n v -> Retype (n, v))
        nat
        (oneofl
           Json.
             [ Null; Bool true; Int (-1); Int 0; Float 1e300; Str "v9"; Arr []; Obj [] ]);
    ]

let rec members = function
  | Json.Obj kvs -> List.fold_left (fun acc (_, v) -> acc + 1 + members v) 0 kvs
  | Json.Arr xs -> List.fold_left (fun acc v -> acc + members v) 0 xs
  | _ -> 0

(* The document with its [n]-th member replaced by [edit]'s answer:
   [None] drops it. *)
let edit_member n edit doc =
  let count = ref 0 in
  let rec go = function
    | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             let here = !count = n in
             incr count;
             if here then Option.map (fun v -> (k, v)) (edit v) else Some (k, go v))
           kvs)
    | Json.Arr xs -> Json.Arr (List.map go xs)
    | v -> v
  in
  go doc

let damaged text = function
  | Cut k -> String.sub text 0 (k mod String.length text)
  | Byte (k, c) ->
    let k = k mod String.length text in
    String.mapi (fun i b -> if i = k then c else b) text
  | Drop n ->
    let doc = Json.parse text in
    Json.render (edit_member (n mod members doc) (fun _ -> None) doc)
  | Retype (n, v) ->
    let doc = Json.parse text in
    Json.render (edit_member (n mod members doc) (fun _ -> Some v) doc)

(* What [fscope report --against] does with a pair of artefacts: load
   both, diff them and render the verdict.  A damaged baseline may
   only raise [Failure] or [Json.Parse_error], which the CLI reports as
   bad input. *)
let prop_damaged_baseline_rejected =
  let files =
    lazy
      (List.map
         (fun f -> (f, In_channel.with_open_bin f In_channel.input_all))
         (baseline_files ()))
  in
  QCheck2.Test.make ~count:300 ~name:"damaged baselines fail to load cleanly"
    ~print:QCheck2.Print.(pair int print_damage)
    QCheck2.Gen.(pair (int_bound 2) gen_damage)
    (fun (i, damage) ->
      let file, text = List.nth (Lazy.force files) i in
      let current = Trend.load ~file (Json.parse text) in
      (try
         let baseline = Trend.load ~file (Json.parse (damaged text damage)) in
         let verdict = Trend.diff ~threshold:0. ~baseline ~current () in
         ignore (Fscope_util.Table.render (Trend.table ~verdict ~baseline ~current));
         ignore (Trend.summary_line ~verdict ~baseline ~current)
       with Failure _ | Json.Parse_error _ -> ());
      true)

let tests =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_fixed_matches_printf;
    Alcotest.test_case "committed artefacts round-trip" `Quick
      test_committed_artefacts_roundtrip;
    Alcotest.test_case "self-diff clean" `Quick test_self_diff_clean;
    Alcotest.test_case "injected regression gates" `Quick test_injected_regression_gates;
    Alcotest.test_case "gauge metrics never gate" `Quick test_gauge_metrics_never_gate;
    Alcotest.test_case "quick mismatch disarms gate" `Quick
      test_quick_mismatch_disarms_gate;
    Alcotest.test_case "wall threshold arms wall metrics" `Quick
      test_wall_threshold_arms_wall_metrics;
    Alcotest.test_case "unknown schema rejected" `Quick test_unknown_schema_rejected;
    QCheck_alcotest.to_alcotest prop_damaged_baseline_rejected;
  ]
