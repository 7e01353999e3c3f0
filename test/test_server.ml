(* Server-suite tests: the traffic generator must be a pure function
   of its spec, the three server workloads must round-trip through the
   registry with engine/reference bit-identity, and server-mpmc's
   exactly-once dispatch must hold across randomized shapes, not just
   the bench points. *)

module W = Fscope_workloads
module Traffic = W.Traffic
module Registry = W.Registry
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine

(* -- traffic generator ------------------------------------------------- *)

let spec =
  { Traffic.default with seed = 7; clients = 4; requests = 40; key_skew = 2 }

let test_traffic_deterministic () =
  let a = Traffic.make spec and b = Traffic.make spec in
  Alcotest.(check int) "digest equal" (Traffic.digest a) (Traffic.digest b);
  Alcotest.(check bool) "arrays equal" true
    (a.Traffic.keys = b.Traffic.keys
    && a.Traffic.gaps = b.Traffic.gaps
    && a.Traffic.bursts = b.Traffic.bursts)

let test_traffic_seed_sensitive () =
  let a = Traffic.make spec in
  let b = Traffic.make { spec with Traffic.seed = 8 } in
  Alcotest.(check bool) "different seed, different trace" true
    (Traffic.digest a <> Traffic.digest b)

let test_traffic_conservation () =
  let t = Traffic.make spec in
  Alcotest.(check int) "total matches spec" spec.Traffic.requests (Traffic.total t);
  let per =
    List.init spec.Traffic.clients (Traffic.client_requests t)
  in
  Alcotest.(check int) "per-client counts sum" spec.Traffic.requests
    (List.fold_left ( + ) 0 per);
  List.iteri
    (fun c n ->
      Alcotest.(check int)
        (Printf.sprintf "client %d arrays sized" c)
        n
        (Array.length t.Traffic.keys.(c)))
    per

let test_traffic_skew_and_modes () =
  let sk =
    Traffic.make { spec with Traffic.spread = Traffic.Skewed; clients = 5 }
  in
  let max_count =
    List.fold_left max 0 (List.init 5 (Traffic.client_requests sk))
  in
  Alcotest.(check int) "skewed: client 0 carries the most" max_count
    (Traffic.client_requests sk 0);
  let closed = Traffic.make { spec with Traffic.mode = Traffic.Closed_loop } in
  Array.iter
    (Array.iter (fun g -> Alcotest.(check int) "closed loop has no gaps" 0 g))
    closed.Traffic.gaps

(* Degenerate shapes: a zero-request trace is an idle server (empty
   streams, still deterministic), a single client owns every request,
   and the skewed spread keeps its at-least-one-request-per-client
   floor. *)
let test_traffic_edge_cases () =
  let idle = Traffic.make { spec with Traffic.requests = 0 } in
  Alcotest.(check int) "0 requests: total" 0 (Traffic.total idle);
  List.iteri
    (fun c n -> Alcotest.(check int) (Printf.sprintf "0 requests: client %d" c) 0 n)
    (List.init spec.Traffic.clients (Traffic.client_requests idle));
  Alcotest.(check int) "0 requests: deterministic" (Traffic.digest idle)
    (Traffic.digest (Traffic.make { spec with Traffic.requests = 0 }));
  let solo = Traffic.make { spec with Traffic.clients = 1 } in
  Alcotest.(check int) "1 client: total" spec.Traffic.requests (Traffic.total solo);
  Alcotest.(check int) "1 client: owns every request" spec.Traffic.requests
    (Traffic.client_requests solo 0);
  Alcotest.(check int) "1 client: burst lengths conserve" spec.Traffic.requests
    (Array.fold_left ( + ) 0 solo.Traffic.bursts.(0));
  Alcotest.check_raises "skewed spread keeps the per-client floor"
    (Invalid_argument "Traffic.make: skewed spread needs at least one request per client")
    (fun () ->
      ignore
        (Traffic.make
           { spec with Traffic.spread = Traffic.Skewed; clients = 5; requests = 3 }))

(* -- registry round-trip: engine == reference, bit for bit ------------- *)

let small_params =
  { Registry.default_params with threads = Some 4; size = Some 4; seed = 3 }

let test_registry_roundtrip () =
  List.iter
    (fun name ->
      let w =
        match Registry.find name with
        | Some spec -> W.Workload.build spec small_params
        | None -> Alcotest.failf "workload %s missing from registry" name
      in
      let config = Config.v ~sfence:true ~max_cycles:1000 () in
      let engine = Machine.run config w.W.Workload.program in
      let reference = Machine.run_reference config w.W.Workload.program in
      Alcotest.(check bool)
        (Printf.sprintf "%s: engine == reference at 1k cycles" name)
        true
        (Machine.same_outcome engine reference))
    [ "server-mpmc"; "server-cache"; "server-steal" ]

(* -- full runs validate under both machines ---------------------------- *)

let check_both name make =
  ignore (W.Workload.run_validated (Config.v ~sfence:false ()) (make ()));
  ignore (W.Workload.run_validated (Config.v ~sfence:true ()) (make ()));
  ignore name

let test_mpmc_validates () =
  check_both "server-mpmc" (fun () ->
      W.Mpmc.make ~threads:4 ~per_producer:6 ~mean_gap:60 ~scope:`Class ())

let test_mpmc_closed_loop () =
  check_both "server-mpmc/closed" (fun () ->
      W.Mpmc.make ~threads:4 ~per_producer:6 ~mode:Traffic.Closed_loop ~window:2
        ~scope:`Set ())

let test_cache_validates () =
  check_both "server-cache" (fun () ->
      W.Cache_server.make ~threads:4 ~per_thread:8 ~mean_gap:60 ~scope:`Set ())

let test_steal_validates () =
  check_both "server-steal" (fun () ->
      W.Steal.make ~workers:4 ~requests:20 ~mean_gap:60 ~scope:`Class ())

(* -- property: MPMC dispatch is exactly-once for arbitrary shapes ------ *)

let prop_mpmc_exactly_once =
  let open QCheck2.Gen in
  let gen =
    tup4 (int_range 2 6) (int_range 1 5) (int_range 1 1000) bool
  in
  QCheck2.Test.make ~count:30 ~name:"server-mpmc retires every request exactly once"
    ~print:(fun (t, p, s, closed) ->
      Printf.sprintf "threads=%d per_producer=%d seed=%d closed=%b" t p s closed)
    gen
    (fun (threads, per_producer, seed, closed) ->
      let mode = if closed then Traffic.Closed_loop else Traffic.Open_loop in
      let w =
        W.Mpmc.make ~threads ~per_producer ~seed ~mean_gap:40 ~mode ~window:3
          ~scope:`Class ()
      in
      let r = Machine.run (Config.v ~sfence:true ()) w.W.Workload.program in
      match w.W.Workload.validate r with
      | Ok () -> true
      | Error msg ->
        QCheck2.Test.fail_report
          (Printf.sprintf "threads=%d per_producer=%d seed=%d closed=%b: %s"
             threads per_producer seed closed msg))

(* -- the server document reads back ----------------------------------- *)

(* Synthetic rows, one with a gauge and names carrying a quote, a
   backslash, a control byte and a non-ASCII byte: the rendered
   document, compact or pretty, must parse back to itself. *)
let test_server_json_parses () =
  let module Server = Fscope_experiments.Server in
  let module Json = Fscope_util.Json in
  let row workload config gauge =
    {
      Server.sv_workload = workload;
      sv_config = config;
      sv_cycles = 1234;
      sv_requests = 32;
      sv_rpk = 25.931928687196;
      sv_fence_share = 12.345678;
      sv_stall_episodes = 7;
      sv_stall_cycles = 91;
      sv_stall_mean = 13.0;
      sv_stall_p50 = 8;
      sv_stall_p90 = 16;
      sv_stall_p99 = 16;
      sv_stall_max = 32;
      sv_lat_samples = 0;
      sv_lat_p50 = 0;
      sv_lat_p90 = 0;
      sv_lat_p99 = 0;
      sv_lat_max = 0;
      sv_gauge = gauge;
      sv_sampled = false;
      sv_lat_sampled = false;
    }
  in
  let gauge =
    {
      Server.gv_name = "queue_depth";
      gv_samples = 9;
      gv_p50 = 1;
      gv_p90 = 2;
      gv_p99 = 4;
      gv_max = 4;
    }
  in
  let odd = "q\"uo\\te\001\233" in
  let doc =
    Server.json ~quick:true ~jobs:2 [ row odd "T" (Some gauge); row odd "S" None ]
  in
  Alcotest.(check bool) "compact reads back" true (Json.parse (Json.render doc) = doc);
  Alcotest.(check bool) "pretty reads back" true
    (Json.parse (Json.render_pretty doc) = doc);
  Alcotest.(check (option string)) "workload keeps its bytes" (Some odd)
    (Option.bind (Json.member "rows" doc) (function
      | Json.Arr (r :: _) -> Option.bind (Json.member "workload" r) Json.to_string
      | _ -> None))

(* -- the quick server artefact, pinned byte for byte ------------------ *)

(* The rows are deterministic (every point self-asserts engine ==
   reference, validation and trace neutrality), so the quick
   BENCH_server.json document has one digest, taken over its compact
   rendering so that layout changes to the file do not move it.  It
   does not depend on the job count: the exact half fans across 2
   domains here. *)
let server_json_md5 = "66abca92cc78bd12f84378f5b881b8b4"

let test_server_rows_pinned () =
  let module Server = Fscope_experiments.Server in
  let module Exp_run = Fscope_experiments.Exp_run in
  let saved = Exp_run.jobs () in
  Exp_run.set_jobs 2;
  let exact =
    Fun.protect ~finally:(fun () -> Exp_run.set_jobs saved) (fun () ->
        Server.run ~quick:true ())
  in
  let rows = exact @ Server.run_sampled ~quick:true () in
  Alcotest.(check string) "quick BENCH_server.json md5" server_json_md5
    (Digest.to_hex
       (Digest.string (Fscope_util.Json.render (Server.json ~quick:true ~jobs:1 rows))))

let tests =
  [
    Alcotest.test_case "traffic deterministic" `Quick test_traffic_deterministic;
    Alcotest.test_case "traffic seed-sensitive" `Quick test_traffic_seed_sensitive;
    Alcotest.test_case "traffic conservation" `Quick test_traffic_conservation;
    Alcotest.test_case "traffic skew and modes" `Quick test_traffic_skew_and_modes;
    Alcotest.test_case "traffic edge cases" `Quick test_traffic_edge_cases;
    Alcotest.test_case "registry round-trip engine==reference" `Quick
      test_registry_roundtrip;
    Alcotest.test_case "mpmc validates on T and S" `Quick test_mpmc_validates;
    Alcotest.test_case "mpmc closed loop validates" `Quick test_mpmc_closed_loop;
    Alcotest.test_case "cache validates on T and S" `Quick test_cache_validates;
    Alcotest.test_case "steal validates on T and S" `Quick test_steal_validates;
    QCheck_alcotest.to_alcotest prop_mpmc_exactly_once;
    Alcotest.test_case "server document parses" `Quick test_server_json_parses;
    Alcotest.test_case "quick server rows pinned" `Slow test_server_rows_pinned;
  ]
