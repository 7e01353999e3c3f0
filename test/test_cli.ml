(* The fscope exit-code contract (README "Exit codes"), checked by
   driving the built binary:
     0    success
     1    bad input, an unreadable file or a checkpoint digest mismatch,
          reported as one "fscope: ..." line on stderr
     2    a timed-out run, or a gated `report` regression
     124  a flag cmdliner cannot parse *)

module Json = Fscope_util.Json

let exe = "../bin/fscope.exe"
let server_baseline = "../bench/baseline/BENCH_server.json"

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* Exit code and stderr of one fscope invocation; stdout is dropped. *)
let fscope args =
  let err = Filename.temp_file "fscope" ".err" in
  let code =
    Sys.command (Filename.quote_command exe args ~stdout:Filename.null ~stderr:err)
  in
  let stderr = read_file err in
  Sys.remove err;
  (code, stderr)

let expect_exit want args =
  let code, stderr = fscope args in
  if code <> want then
    Alcotest.failf "fscope %s: exit %d, expected %d; stderr:\n%s" (String.concat " " args)
      code want stderr;
  stderr

(* Bad input: exit 1 with exactly one "fscope: " line, no backtrace. *)
let expect_bad_input args =
  let stderr = expect_exit 1 args in
  let lines = String.split_on_char '\n' (String.trim stderr) in
  match lines with
  | [ line ] when String.starts_with ~prefix:"fscope: " line -> ()
  | _ ->
    Alcotest.failf "fscope %s: expected one 'fscope: ...' line, got:\n%s"
      (String.concat " " args) stderr

let test_success () =
  ignore (expect_exit 0 [ "list" ]);
  ignore (expect_exit 0 [ "report"; "--against"; server_baseline; "--current"; server_baseline ])

let test_out_of_range_flags () =
  List.iter expect_bad_input
    [
      [ "run"; "dekker"; "--rob"; "0" ];
      [ "run"; "dekker"; "--fsb"; "0" ];
      [ "run"; "msn"; "--sample"; "0:0:0" ];
      [ "run"; "msn"; "--threads"; "0" ];
      [ "run"; "dekker"; "--level"; "9" ];
      [ "run"; "server-mpnc" ];
      [ "run"; "dekker"; "--mem-latency=-5" ];
      [ "run"; "dekker"; "--shard-domains=-3" ];
      [ "compare"; "dekker"; "--jobs"; "0" ];
      [ "profile"; "dekker"; "--max-cycles"; "0" ];
    ];
  (* Every command that names a machine shares one set of machine
     flags, validated the same way. *)
  List.iter
    (fun command ->
      List.iter
        (fun flag -> expect_bad_input (command @ flag))
        [ [ "--rob"; "0" ]; [ "--shard-domains"; "0" ] ])
    [
      [ "trace"; "dekker" ];
      [ "profile"; "dekker" ];
      [ "advise"; "dekker" ];
      [ "checkpoint"; "save"; "msn"; "--at"; "2000" ];
      [ "checkpoint"; "resume"; "msn"; "--from"; "no-such-checkpoint.json" ];
    ]

(* A non-positive size or round count is refused before the workload
   is built, with one line naming the flag, instead of reaching the
   slang compiler or an [Array.make]. *)
let test_registry_params () =
  List.iter
    (fun (args, line) ->
      Alcotest.(check string)
        (String.concat " " args)
        ("fscope: " ^ line ^ "\n")
        (expect_exit 1 ("run" :: args)))
    [
      ([ "msn"; "--size=-1" ], "--size must be positive, got -1");
      ([ "radiosity"; "--size=0" ], "--size must be positive, got 0");
      ([ "server-mpmc"; "--size=0" ], "--size must be positive, got 0");
      ([ "server-cache"; "--size=0" ], "--size must be positive, got 0");
      ([ "wsq"; "--rounds=-1" ], "--rounds must be positive, got -1");
      ([ "wsq-flavored"; "--rounds=-1" ], "--rounds must be positive, got -1");
      ([ "harris"; "--size=-1" ], "--size must be positive, got -1");
      ([ "radiosity"; "--size=-1" ], "--size must be positive, got -1");
    ]

let test_unreadable_file () =
  expect_bad_input [ "report"; "--against"; "no-such-baseline.json" ];
  (* a baseline cut short is unparsable, not a crash *)
  let text = read_file server_baseline in
  let file = Filename.temp_file "fscope" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (String.sub text 0 (String.length text / 2)));
      expect_bad_input [ "report"; "--against"; file; "--current"; server_baseline ])

(* One checkpoint, saved at cycle 2000, serves two cases: resuming it
   under a different machine is a digest mismatch (1), and resuming it
   with a cycle budget that msn cannot finish in is a timeout (2). *)
let test_checkpoint_exits () =
  let ck = Filename.temp_file "fscope" ".ckpt.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ck)
    (fun () ->
      ignore (expect_exit 0 [ "checkpoint"; "save"; "msn"; "--at"; "2000"; "--compact"; "-o"; ck ]);
      expect_bad_input [ "checkpoint"; "resume"; "msn"; "--traditional"; "--from"; ck ];
      ignore
        (expect_exit 2 [ "checkpoint"; "resume"; "msn"; "--from"; ck; "--max-cycles"; "3000" ]))

(* A saved checkpoint is input from outside the program: each edit
   below makes the restore refuse one field, and every one must be
   reported as bad input (1) — not crash (125), not run on.  So must a
   document of the previous schema, whose CPI arrays had 15 leaves. *)
let test_tampered_checkpoint () =
  let ck = Filename.temp_file "fscope" ".ckpt.json" in
  let bad = Filename.temp_file "fscope" ".ckpt.json" in
  let set key f = List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) in
  let obj f = function Json.Obj kvs -> Json.Obj (f kvs) | _ -> Alcotest.fail "object" in
  let arr f = function Json.Arr xs -> Json.Arr (f xs) | _ -> Alcotest.fail "array" in
  let first f = arr (function x :: rest -> f x :: rest | [] -> Alcotest.fail "empty") in
  let drop_last xs = List.filteri (fun i _ -> i < List.length xs - 1) xs in
  let bump j = Json.Int (Json.int_exn j + 1) in
  let core0 edit = obj (set "cores" (first (obj edit))) in
  let resume_tampered doc =
    Out_channel.with_open_bin bad (fun oc -> output_string oc (Json.render doc));
    [ "checkpoint"; "resume"; "msn"; "--from"; bad ]
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove ck;
      Sys.remove bad)
    (fun () ->
      ignore (expect_exit 0 [ "checkpoint"; "save"; "msn"; "--at"; "2000"; "-o"; ck ]);
      let saved = Json.of_file ck in
      List.iter
        (fun tamper -> expect_bad_input (resume_tampered (tamper saved)))
        [
          core0 (set "cpi" (arr drop_last));
          core0 (set "counts" (arr drop_last));
          core0 (set "rob_head" bump);
          core0 (set "rob" (first (obj (set "seq" bump))));
          core0 (set "bpred" (arr drop_last));
          core0 (set "rob" (first (obj (set "mask" (fun _ -> Json.Int (1 lsl 40))))));
          core0 (set "sb" (fun _ -> Json.Arr (List.init 40 (fun _ -> Json.of_int_list [ 0; 0; 0; 0 ]))));
          (* a store-buffer entry outside memory would fail as it drains *)
          core0 (set "sb" (fun _ -> Json.Arr [ Json.of_int_list [ 1_000_000_000_000; 1; 0; 2001 ] ]));
          (* a fetch pc far past the code would stall the core until the
             cycle budget runs out *)
          core0 (set "fetch_pc" (fun _ -> Json.Int 1_000_000_000));
          obj (set "cycle" (fun _ -> Json.Int (-5)));
          (* a resident L1 line without its coherence state *)
          obj
            (set "hierarchy"
               (obj
                  (set "l1"
                     (first
                        (obj
                           (set "slots"
                              (first (first (fun _ -> Json.Arr [ Json.Int 0; Json.Int 1; Json.Null ])))))))));
        ];
      let v2 = obj (set "schema" (fun _ -> Json.Str "fscope-checkpoint/v2")) saved in
      Alcotest.(check string)
        "v2 refused" "fscope: checkpoint: unknown schema\n"
        (expect_exit 1 (resume_tampered v2)))

(* A copy of the server baseline whose first row took twice the
   simulated cycles must trip the regression gate. *)
let test_report_regression () =
  let double_first_row = function
    | "rows", Json.Arr (Json.Obj row :: rest) ->
      let row =
        List.map
          (function "sim_cycles", Json.Int c -> ("sim_cycles", Json.Int (2 * c)) | kv -> kv)
          row
      in
      ("rows", Json.Arr (Json.Obj row :: rest))
    | kv -> kv
  in
  let tampered =
    match Json.of_file server_baseline with
    | Json.Obj fields -> Json.Obj (List.map double_first_row fields)
    | _ -> Alcotest.fail "server baseline is not a JSON object"
  in
  let file = Filename.temp_file "fscope" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc (Json.render tampered));
      ignore
        (expect_exit 2
           [ "report"; "--against"; server_baseline; "--current"; file; "--threshold"; "15" ]))

let test_unparsable_flag () = ignore (expect_exit 124 [ "run"; "dekker"; "--no-such-flag" ])

let tests =
  [
    Alcotest.test_case "success exits 0" `Quick test_success;
    Alcotest.test_case "out-of-range flags exit 1" `Quick test_out_of_range_flags;
    Alcotest.test_case "non-positive sizes exit 1" `Quick test_registry_params;
    Alcotest.test_case "unreadable file exits 1" `Quick test_unreadable_file;
    Alcotest.test_case "checkpoint mismatch 1, timeout 2" `Quick test_checkpoint_exits;
    Alcotest.test_case "tampered checkpoint exits 1" `Quick test_tampered_checkpoint;
    Alcotest.test_case "report regression exits 2" `Quick test_report_regression;
    Alcotest.test_case "unparsable flag exits 124" `Quick test_unparsable_flag;
  ]
