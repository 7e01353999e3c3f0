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
      let config = Config.v ~base:(Config.scoped Config.default) ~max_cycles:1000 () in
      let engine = Machine.run config w.W.Workload.program in
      let reference = Machine.run_reference config w.W.Workload.program in
      Alcotest.(check bool)
        (Printf.sprintf "%s: engine == reference at 1k cycles" name)
        true
        (Machine.same_outcome engine reference))
    [ "server-mpmc"; "server-cache"; "server-steal" ]

(* -- full runs validate under both machines ---------------------------- *)

let check_both name make =
  ignore (W.Workload.run_validated (Config.traditional Config.default) (make ()));
  ignore (W.Workload.run_validated (Config.scoped Config.default) (make ()));
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
      let r = Machine.run (Config.scoped Config.default) w.W.Workload.program in
      match w.W.Workload.validate r with
      | Ok () -> true
      | Error msg ->
        QCheck2.Test.fail_report
          (Printf.sprintf "threads=%d per_producer=%d seed=%d closed=%b: %s"
             threads per_producer seed closed msg))

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
  ]
