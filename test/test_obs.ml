(* The observability layer: event/metric invariants on real runs, the
   golden JSONL head for a tiny deterministic run, and the registry
   round-trip (every registered workload builds and validates at the
   smallest sizes). *)

module Obs = Fscope_obs
module W = Fscope_workloads
module Registry = Fscope_workloads.Registry
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine

let level1 = W.Privwork.fig12_levels.(0)

(* A traced run with rings large enough that nothing is dropped, so
   event-count invariants are exact. *)
let traced_run ?(config = Config.default) w =
  let cores = Fscope_isa.Program.thread_count w.W.Workload.program in
  let trace = Obs.Trace.create ~ring_capacity:(1 lsl 20) ~cores () in
  let result = Machine.run ~obs:trace config w.W.Workload.program in
  match result.Machine.obs with
  | Some report -> (result, report)
  | None -> Alcotest.fail "traced run produced no report"

let tiny_dekker () = W.Dekker.make ~level:level1 ~attempts:1

(* ------------------------------------------------------------------ *)
(* Metrics registry units                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_counter () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a/b" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "value" 42 (Obs.Metrics.counter_value c);
  (* same name yields the same counter *)
  Obs.Metrics.incr (Obs.Metrics.counter m "a/b");
  Alcotest.(check int) "shared" 43 (Obs.Metrics.counter_value c)

let test_metrics_histogram () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 1; 3; 300 ];
  match List.assoc_opt "h" (Obs.Metrics.snapshot m) with
  | Some (Obs.Metrics.Histogram_v { count; sum; buckets }) ->
    Alcotest.(check int) "count" 5 count;
    Alcotest.(check int) "sum" 305 sum;
    (* keyed by bucket lower bound: 0; 1,1 -> [1,2); 3 -> [2,4);
       300 -> [256,512) *)
    Alcotest.(check (list (pair int int)))
      "buckets"
      [ (0, 1); (1, 2); (2, 1); (256, 1) ]
      buckets
  | _ -> Alcotest.fail "histogram snapshot missing"

let test_metrics_gauge () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "g" in
  List.iter (Obs.Metrics.gauge_observe g) [ 5; 2; 9 ];
  match List.assoc_opt "g" (Obs.Metrics.snapshot m) with
  | Some (Obs.Metrics.Gauge_v { count; sum; min; max; last }) ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check int) "sum" 16 sum;
    Alcotest.(check int) "min" 2 min;
    Alcotest.(check int) "max" 9 max;
    Alcotest.(check int) "last" 9 last
  | _ -> Alcotest.fail "gauge snapshot missing"

let test_metrics_find () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  List.iter (Obs.Metrics.observe h) [ 1; 3 ];
  let g = Obs.Metrics.gauge m "g" in
  List.iter (Obs.Metrics.gauge_observe g) [ 7; 4 ];
  Obs.Metrics.incr (Obs.Metrics.counter m "c");
  (match Obs.Metrics.find_histogram m "h" with
  | Some { Obs.Metrics.count; sum; buckets } ->
    Alcotest.(check int) "hist count" 2 count;
    Alcotest.(check int) "hist sum" 4 sum;
    Alcotest.(check (list (pair int int))) "hist buckets" [ (1, 1); (2, 1) ] buckets
  | None -> Alcotest.fail "find_histogram missed a registered histogram");
  (match Obs.Metrics.find_gauge m "g" with
  | Some { Obs.Metrics.count; sum; min; max; last } ->
    Alcotest.(check int) "gauge count" 2 count;
    Alcotest.(check int) "gauge sum" 11 sum;
    Alcotest.(check int) "gauge min" 4 min;
    Alcotest.(check int) "gauge max" 7 max;
    Alcotest.(check int) "gauge last" 4 last
  | None -> Alcotest.fail "find_gauge missed a registered gauge");
  (* misses: absent names and kind mismatches both return None *)
  Alcotest.(check bool) "absent hist" true (Obs.Metrics.find_histogram m "nope" = None);
  Alcotest.(check bool) "absent gauge" true (Obs.Metrics.find_gauge m "nope" = None);
  Alcotest.(check bool) "kind mismatch hist" true (Obs.Metrics.find_histogram m "c" = None);
  Alcotest.(check bool) "kind mismatch gauge" true (Obs.Metrics.find_gauge m "h" = None)

let test_ring_overwrite () =
  let r = Obs.Ring.create ~capacity:3 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length" 3 (Obs.Ring.length r);
  Alcotest.(check int) "dropped" 2 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 3; 4; 5 ] (Obs.Ring.to_list r)

(* ------------------------------------------------------------------ *)
(* Run-level invariants                                                *)
(* ------------------------------------------------------------------ *)

let test_timing_neutral () =
  let w = tiny_dekker () in
  let untraced = Machine.run Config.default w.W.Workload.program in
  let traced, _ = traced_run w in
  Alcotest.(check int) "cycles" untraced.Machine.cycles traced.Machine.cycles;
  Alcotest.(check bool) "untraced carries no report" true (untraced.Machine.obs = None)

let test_fence_pairing () =
  let result, report = traced_run (tiny_dekker ()) in
  Alcotest.(check int) "nothing dropped" 0 report.Obs.Report.dropped;
  let begins = ref 0 and ends = ref 0 and stall_sum = ref 0 in
  List.iter
    (fun (e : Obs.Event.timed) ->
      match e.event with
      | Obs.Event.Fence_stall_begin _ -> incr begins
      | Obs.Event.Fence_stall_end { cycles; _ } ->
        incr ends;
        stall_sum := !stall_sum + cycles
      | _ -> ())
    report.Obs.Report.events;
  Alcotest.(check int) "begin/end paired" !begins !ends;
  Alcotest.(check int)
    "stall durations sum to the legacy counter"
    (Machine.fence_stall_cycles result)
    !stall_sum

let test_sb_insert_drain () =
  let _, report = traced_run (tiny_dekker ()) in
  let inserts = ref 0 and drains = ref 0 in
  List.iter
    (fun (e : Obs.Event.timed) ->
      match e.event with
      | Obs.Event.Sb_insert _ -> incr inserts
      | Obs.Event.Sb_drain _ -> incr drains
      | _ -> ())
    report.Obs.Report.events;
  Alcotest.(check bool) "stores happened" true (!inserts > 0);
  Alcotest.(check int) "every insert drains" !inserts !drains

let test_snapshot_matches_legacy () =
  let result, report = traced_run (tiny_dekker ()) in
  let counter = Obs.Report.counter report in
  Alcotest.(check int) "total/fence_stall_cycles"
    (Machine.fence_stall_cycles result)
    (counter "total/fence_stall_cycles");
  Alcotest.(check int) "total/active_cycles"
    (Machine.total_active_cycles result)
    (counter "total/active_cycles");
  Alcotest.(check int) "total/committed"
    (Machine.committed_instrs result)
    (counter "total/committed");
  Alcotest.(check int) "machine/cycles" result.Machine.cycles (counter "machine/cycles");
  Alcotest.(check int) "mem/l1_misses" result.Machine.cache.Fscope_mem.Hierarchy.l1_misses
    (counter "mem/l1_misses");
  Array.iteri
    (fun i (s : Fscope_cpu.Core.stats) ->
      Alcotest.(check int)
        (Printf.sprintf "core%d/committed" i)
        s.committed
        (counter (Printf.sprintf "core%d/committed" i)))
    result.Machine.core_stats

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let golden_jsonl_head =
  [
    {|{"trace":"fscope","cycles":6069,"cores":2,"events":11801,"dropped":0,"timed_out":false}|};
    {|{"cycle":0,"core":0,"event":"rob_dispatch","pc":0,"cls":"alu"}|};
    {|{"cycle":0,"core":0,"event":"rob_dispatch","pc":1,"cls":"alu"}|};
    {|{"cycle":0,"core":0,"event":"rob_dispatch","pc":2,"cls":"alu"}|};
    {|{"cycle":0,"core":0,"event":"rob_dispatch","pc":3,"cls":"alu"}|};
  ]

let test_jsonl_golden () =
  let _, report = traced_run (tiny_dekker ()) in
  let lines = String.split_on_char '\n' (Obs.Sink.jsonl report) in
  List.iteri
    (fun i golden ->
      Alcotest.(check string) (Printf.sprintf "line %d" i) golden (List.nth lines i))
    golden_jsonl_head

let test_chrome_shape () =
  let _, report = traced_run (tiny_dekker ()) in
  let s = Obs.Sink.chrome report in
  Alcotest.(check bool) "array open" true (String.length s > 2 && s.[0] = '[');
  Alcotest.(check bool) "array close" true (s.[String.length s - 2] = ']');
  let count needle =
    let n = String.length needle and acc = ref 0 in
    for i = 0 to String.length s - n do
      if String.sub s i n = needle then incr acc
    done;
    !acc
  in
  Alcotest.(check int) "B/E balanced" (count {|"ph":"B"|}) (count {|"ph":"E"|});
  Alcotest.(check bool) "has instants" true (count {|"ph":"i"|} > 0)

let test_summary_totals () =
  let result, report = traced_run (tiny_dekker ()) in
  let s = Obs.Sink.summary report in
  let expected =
    Printf.sprintf "total fence-stall cycles: %d" (Machine.fence_stall_cycles result)
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary quotes the exact legacy total" true (contains s expected)

(* ------------------------------------------------------------------ *)
(* Registry round-trip                                                 *)
(* ------------------------------------------------------------------ *)

let small_params name =
  let p =
    { Registry.default_params with level = level1; attempts = 4; rounds = Some 3 }
  in
  match name with
  | "msn" -> { p with size = Some 4 }
  | "pst" -> { p with size = Some 96 }
  | "ptc" -> { p with size = Some 48 }
  | "barnes" -> { p with size = Some 32 }
  | "radiosity" -> { p with size = Some 32 }
  | _ -> p

let test_registry_round_trip () =
  List.iter
    (fun (spec : Registry.spec) ->
      let w = W.Workload.build spec (small_params spec.name) in
      let result = W.Workload.run_validated Config.default w in
      Alcotest.(check bool)
        (Printf.sprintf "%s finished" spec.name)
        false result.Machine.timed_out)
    Registry.all

let test_registry_lookup () =
  Alcotest.(check bool) "find hit" true (Registry.find "wsq" <> None);
  Alcotest.(check bool) "find miss" true (Registry.find "nope" = None);
  Alcotest.(check string) "miss message"
    "unknown workload 'nope' (run 'fscope list' for the registry)"
    (Registry.unknown_message "nope");
  (* Close misses and substring matches get "did you mean". *)
  Alcotest.(check (list string)) "suggest close miss" [ "msn" ] (Registry.suggest "msm");
  Alcotest.(check bool) "suggest substring" true
    (List.mem "server-cache" (Registry.suggest "cache"));
  Alcotest.(check string) "near-miss message suggests"
    "unknown workload 'server-mpnc' — did you mean: server-mpmc?"
    (Registry.unknown_message "server-mpnc");
  (* The shared lookup helper composes find + unknown_message. *)
  Alcotest.check_raises "Exp_run.workload miss raises"
    (Failure "unknown workload 'nope' (run 'fscope list' for the registry)")
    (fun () -> ignore (Fscope_experiments.Exp_run.workload "nope"))

(* ------------------------------------------------------------------ *)
(* Drop warning and shard lanes                                        *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_summary_drop_warning () =
  let w = W.Dekker.make ~level:level1 ~attempts:8 in
  let cores = Fscope_isa.Program.thread_count w.W.Workload.program in
  (* A 4-event ring is guaranteed to overflow on any real run. *)
  let trace = Obs.Trace.create ~ring_capacity:4 ~cores () in
  let result = Machine.run ~obs:trace Config.default w.W.Workload.program in
  let report = Option.get result.Machine.obs in
  Alcotest.(check bool) "tiny ring drops" true (report.Obs.Report.dropped > 0);
  let s = Obs.Sink.summary report in
  Alcotest.(check bool) "summary warns about the drops" true
    (contains ~needle:"warning:" s && contains ~needle:"--ring-capacity" s);
  (* and a drop-free run stays warning-free *)
  let _, clean = traced_run w in
  Alcotest.(check bool) "clean run has no warning" false
    (contains ~needle:"warning:" (Obs.Sink.summary clean))

let test_chrome_shard_lanes () =
  let w = tiny_dekker () in
  let run config =
    let cores = Fscope_isa.Program.thread_count w.W.Workload.program in
    let trace = Obs.Trace.create ~ring_capacity:(1 lsl 20) ~cores () in
    let result = Machine.run ~obs:trace config w.W.Workload.program in
    Option.get result.Machine.obs
  in
  let plain = Obs.Sink.chrome (run Config.default) in
  Alcotest.(check bool) "one process at --shard-domains 1" true
    (contains ~needle:"{\"name\":\"fscope\"}" plain
    && not (contains ~needle:"shard" plain));
  let sharded = Obs.Sink.chrome (run (Config.v ~shard_domains:2 ())) in
  Alcotest.(check bool) "one process track per shard" true
    (contains ~needle:"{\"name\":\"fscope shard 0\"}" sharded
    && contains ~needle:"{\"name\":\"fscope shard 1\"}" sharded);
  (* dekker: core 0 -> shard 0, core 1 -> shard 1 *)
  Alcotest.(check bool) "cores land on their shard's pid" true
    (contains ~needle:"\"pid\":1,\"tid\":1,\"args\":{\"name\":\"core 1\"}" sharded);
  (* metadata aside, the two renderings describe the same events *)
  Alcotest.(check int) "same event count either way"
    (List.length (String.split_on_char '\n' plain))
    (List.length (String.split_on_char '\n' sharded) - 1)

(* Gauge samplers: a traced server run's drain stream must replay into
   non-empty occupancy histograms, deterministically. *)
let test_gauge_fold_deterministic () =
  List.iter
    (fun (name, build) ->
      let w : W.Workload.t = build () in
      let program = w.W.Workload.program in
      let g = Option.get (W.Gauges.for_workload ~name program) in
      let run () =
        let cores = Fscope_isa.Program.thread_count program in
        let trace =
          Obs.Trace.create ~ring_capacity:(1 lsl 16) ~keep:g.W.Gauges.keep ~cores ()
        in
        let _ = Machine.run ~obs:trace Config.default program in
        Alcotest.(check int) (name ^ " gauge trace undropped") 0
          (Obs.Trace.dropped trace);
        let m = Obs.Metrics.create () in
        g.W.Gauges.fold m (Obs.Trace.events trace);
        Obs.Metrics.snapshot m
      in
      let a = run () and b = run () in
      Alcotest.(check bool) (name ^ " gauge fold deterministic") true (a = b);
      match List.assoc_opt g.W.Gauges.hist a with
      | Some (Obs.Metrics.Histogram_v h) ->
        Alcotest.(check bool) (name ^ " gauge non-empty") true (h.Obs.Metrics.count > 0)
      | _ -> Alcotest.fail (name ^ ": aggregate gauge histogram missing"))
    [
      ("server-mpmc", fun () -> W.Mpmc.make ~threads:4 ~per_producer:4 ~scope:`Class ());
      ("server-steal", fun () -> W.Steal.make ~workers:4 ~requests:12 ~scope:`Class ());
      ( "server-cache",
        fun () -> W.Cache_server.make ~threads:4 ~per_thread:6 ~scope:`Class () );
    ]

let tests =
  [
    Alcotest.test_case "metrics counter" `Quick test_metrics_counter;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "metrics gauge" `Quick test_metrics_gauge;
    Alcotest.test_case "metrics find accessors" `Quick test_metrics_find;
    Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
    Alcotest.test_case "tracing is timing-neutral" `Quick test_timing_neutral;
    Alcotest.test_case "fence stalls pair and sum" `Quick test_fence_pairing;
    Alcotest.test_case "sb inserts drain" `Quick test_sb_insert_drain;
    Alcotest.test_case "snapshot matches legacy stats" `Quick test_snapshot_matches_legacy;
    Alcotest.test_case "jsonl golden head" `Quick test_jsonl_golden;
    Alcotest.test_case "chrome trace shape" `Quick test_chrome_shape;
    Alcotest.test_case "summary quotes legacy total" `Quick test_summary_totals;
    Alcotest.test_case "summary drop warning" `Quick test_summary_drop_warning;
    Alcotest.test_case "chrome shard lanes" `Quick test_chrome_shard_lanes;
    Alcotest.test_case "gauge fold deterministic" `Quick test_gauge_fold_deterministic;
    Alcotest.test_case "registry round-trip" `Slow test_registry_round_trip;
    Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
  ]
