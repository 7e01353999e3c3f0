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
let traced_run w =
  let cores = Fscope_isa.Program.thread_count w.W.Workload.program in
  let trace = Obs.Trace.create ~ring_capacity:(1 lsl 20) ~cores () in
  let result = Machine.run ~obs:trace Config.default w.W.Workload.program in
  match result.Machine.obs with
  | Some report -> (result, report)
  | None -> Alcotest.fail "traced run produced no report"

let tiny_dekker () = W.Dekker.make ~level:level1 ~attempts:1

(* The events an iterator such as [Trace.iter_events trace] visits. *)
let collect iter =
  let acc = ref [] in
  iter (fun e -> acc := e :: !acc);
  List.rev !acc

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

(* Nearest-rank percentiles over log2 buckets, at the edges: an empty
   histogram, one bucket, and q = 0.99 landing exactly on the last
   sample of a bucket (rank 99 of 100) versus one past it. *)
let test_hist_percentile_edges () =
  let snap values =
    let m = Obs.Metrics.create () in
    let h = Obs.Metrics.histogram m "h" in
    List.iter (Obs.Metrics.observe h) values;
    Option.get (Obs.Metrics.find_histogram m "h")
  in
  let pct = Obs.Metrics.hist_percentile and top = Obs.Metrics.hist_max_floor in
  let empty = snap [] in
  Alcotest.(check (list int)) "empty: p0/p50/p99/max" [ 0; 0; 0; 0 ]
    [ pct empty 0.; pct empty 0.5; pct empty 0.99; top empty ];
  let one = snap [ 5; 6; 7 ] in
  Alcotest.(check (list int)) "one bucket [4,8): p0/p50/p99/p100/max" [ 4; 4; 4; 4; 4 ]
    [ pct one 0.; pct one 0.5; pct one 0.99; pct one 1.0; top one ];
  let on_edge = snap (List.init 99 (fun _ -> 1) @ [ 300 ]) in
  Alcotest.(check (list int)) "rank 99 of 100 is the last 1: p99/p100/max"
    [ 1; 256; 256 ]
    [ pct on_edge 0.99; pct on_edge 1.0; top on_edge ];
  let past_edge = snap (List.init 98 (fun _ -> 1) @ [ 300; 300 ]) in
  Alcotest.(check int) "rank 99 of 100 is the first 300: p99" 256 (pct past_edge 0.99)

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

(* Event [i] is pushed at cycle [i] and carries [i] as its address,
   so both fields read back the push order. *)
let test_ring_overwrite () =
  let r = Obs.Ring.create ~capacity:3 in
  List.iter (fun i -> Obs.Ring.sb_insert r ~cycle:i ~addr:i) [ 1; 2; 3; 4; 5 ];
  let kept = collect (Obs.Ring.iter [| r |]) in
  let addr (e : Obs.Event.timed) =
    match e.event with Obs.Event.Sb_insert { addr } -> addr | _ -> -1
  in
  Alcotest.(check int) "length" 3 (Obs.Ring.length r);
  Alcotest.(check int) "dropped" 2 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "oldest first" [ 3; 4; 5 ] (List.map addr kept);
  Alcotest.(check (list int)) "cycles oldest first" [ 3; 4; 5 ]
    (List.map (fun (e : Obs.Event.timed) -> e.cycle) kept)

(* Every event a typed emitter can record, with payloads at the
   extremes of [int], survives the unboxed encoding; each core keeps
   its last [capacity] recorded events, in order, merged by (cycle,
   core) as a stable sort of the per-core streams orders them; every
   other recorded event counts as dropped.  A drain-filtered trace
   records only the drains its predicate accepts. *)
let gen_word =
  QCheck2.Gen.(oneof [ int; small_signed_int; oneofl [ min_int; max_int; -1; 0 ] ])

let gen_drain =
  QCheck2.Gen.map2
    (fun addr value -> Obs.Event.Sb_drain { addr; value })
    gen_word gen_word

let gen_event =
  let open QCheck2.Gen in
  let open Obs.Event in
  let word = gen_word in
  let cls = oneofl [ Load; Store; Cas; Fence; Branch; Jump; Alu; Other ] in
  oneof
    [
      map2 (fun pc global -> Fence_stall_begin { pc; global }) word bool;
      map2 (fun pc cycles -> Fence_stall_end { pc; cycles }) word word;
      map2 (fun pc cls -> Rob_dispatch { pc; cls }) word cls;
      map2 (fun pc cls -> Rob_commit { pc; cls }) word cls;
      map (fun addr -> Sb_insert { addr }) word;
      gen_drain;
      map
        (fun column -> Scope_push { column })
        (opt (oneof [ nat; oneofl [ 0; max_int ] ]));
      pure Scope_pop;
      map3
        (fun addr write outcome -> Mem_access { addr; write; outcome })
        word bool
        (oneofl [ L1_hit; L2_hit; L2_miss ]);
      map2 (fun addr success -> Cas_result { addr; success }) word bool;
    ]

let print_event e =
  Obs.Event.name e ^ Fscope_util.Json.render (Fscope_util.Json.Obj (Obs.Event.args e))

(* Record [event] through the typed emitter the simulator would call. *)
let emit_typed trace ~core (event : Obs.Event.t) =
  match event with
  | Fence_stall_begin { pc; global } ->
    Obs.Trace.fence_stall_begin trace ~core ~pc ~global
  | Fence_stall_end { pc; cycles } -> Obs.Trace.fence_stall_end trace ~core ~pc ~cycles
  | Rob_dispatch { pc; cls } -> Obs.Trace.rob_dispatch trace ~core ~pc ~cls
  | Rob_commit { pc; cls } -> Obs.Trace.rob_commit trace ~core ~pc ~cls
  | Sb_insert { addr } -> Obs.Trace.sb_insert trace ~core ~addr
  | Sb_drain { addr; value } -> Obs.Trace.sb_drain trace ~core ~addr ~value
  | Scope_push { column = None } -> Obs.Trace.scope_push trace ~core ~column:(-1)
  | Scope_push { column = Some column } -> Obs.Trace.scope_push trace ~core ~column
  | Scope_pop -> Obs.Trace.scope_pop trace ~core
  | Mem_access { addr; write; outcome } ->
    Obs.Trace.mem_access trace ~core ~addr ~write ~outcome
  | Cas_result { addr; success } -> Obs.Trace.cas_result trace ~core ~addr ~success

(* The drain predicate a stream's [cut] stands for: [None] records
   every event, [Some cut] the drains whose low two address-and-value
   bits fall below [cut] (0 accepts none, 4 all). *)
let accepts cut ~addr ~value = (addr lxor value) land 3 < cut

let recorded cut (event : Obs.Event.t) =
  match (cut, event) with
  | None, _ -> true
  | Some cut, Sb_drain { addr; value } -> accepts cut ~addr ~value
  | Some _, _ -> false

(* (cores, capacity, (first cycle, drain predicate),
   [(core, clock advance, event)]).  Half the streams use a ring on
   either side of a chunk boundary, long enough that their cores often
   wrap it; those are not shrunk, as shrinking thousands of events one
   by one runs for many minutes.  Filtered streams are mostly drains,
   so their rings wrap too. *)
let gen_stream =
  let open QCheck2.Gen in
  let c = Obs.Ring.chunk_slots in
  let* cores = int_range 1 4 in
  let* capacity = oneof [ int_range 1 8; oneofl [ 1; c - 1; c; c + 1; (2 * c) + 1 ] ] in
  let* cut = opt (int_bound 4) in
  let event =
    if cut = None then gen_event else oneof [ gen_event; gen_drain; gen_drain ]
  in
  let* steps =
    (if capacity > 8 then no_shrink else Fun.id)
      (list_size
         (int_range 0 (Int.max 60 (2 * cores * capacity)))
         (triple (int_bound (cores - 1)) (int_bound 2) event))
  in
  (* the last clock advance ends at [max_int] at the latest *)
  let+ start = oneofl [ 0; 1_000_000; max_int - (2 * List.length steps) ] in
  (cores, capacity, (start, cut), steps)

let prop_ring_encoding =
  QCheck2.Test.make ~count:500 ~name:"event rings keep each core's last events"
    ~print:
      QCheck2.Print.(
        quad int int (pair int (option int)) (list (triple int int print_event)))
    gen_stream
    (fun (cores, capacity, (start, cut), steps) ->
      let trace =
        match cut with
        | None -> Obs.Trace.create ~ring_capacity:capacity ~cores ()
        | Some cut ->
          Obs.Trace.create ~ring_capacity:capacity ~drains:(accepts cut) ~cores ()
      in
      let emitted = Array.make cores [] in
      let clock = ref start in
      List.iter
        (fun (core, advance, event) ->
          clock := !clock + advance;
          Obs.Trace.set_now trace !clock;
          emit_typed trace ~core event;
          if recorded cut event then
            emitted.(core) <- { Obs.Event.cycle = !clock; core; event } :: emitted.(core))
        steps;
      let last_n l =
        let n = List.length l in
        List.filteri (fun i _ -> i >= n - capacity) (List.rev l)
      in
      let kept = Array.map last_n emitted in
      let expected =
        List.stable_sort
          (fun (a : Obs.Event.timed) (b : Obs.Event.timed) ->
            match Int.compare a.cycle b.cycle with
            | 0 -> Int.compare a.core b.core
            | c -> c)
          (List.concat (Array.to_list kept))
      in
      let recorded_n = Array.fold_left (fun acc l -> acc + List.length l) 0 emitted in
      let kept_n = Array.fold_left (fun acc l -> acc + List.length l) 0 kept in
      collect (Obs.Trace.iter_events trace) = expected
      && Obs.Trace.length trace = kept_n
      && Obs.Trace.dropped trace = recorded_n - kept_n)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Once a ring is full, recording an event writes four words into it
   and allocates nothing; a drain-filtered trace allocates nothing for
   the events it does not record. *)
let test_emit_allocates_nothing () =
  let trace = Obs.Trace.create ~ring_capacity:64 ~cores:2 () in
  let emits n =
    for _ = 1 to n do
      Obs.Trace.mem_access trace ~core:1 ~addr:7 ~write:true ~outcome:Obs.Event.L2_miss
    done
  in
  emits 64;
  let idle = minor_words (fun () -> emits 0) in
  let busy = minor_words (fun () -> emits 10_000) in
  Alcotest.(check (float 0.)) "minor words of 10,000 emits" idle busy;
  Alcotest.(check int) "the full ring dropped them" 10_000 (Obs.Trace.dropped trace);
  let filtered =
    Obs.Trace.create ~ring_capacity:64
      ~drains:(fun ~addr ~value:_ -> addr = 1)
      ~cores:2 ()
  in
  let skips n =
    for i = 1 to n do
      Obs.Trace.fence_stall_begin filtered ~core:0 ~pc:i ~global:true;
      Obs.Trace.fence_stall_end filtered ~core:0 ~pc:i ~cycles:i;
      Obs.Trace.rob_dispatch filtered ~core:0 ~pc:i ~cls:Obs.Event.Store;
      Obs.Trace.rob_commit filtered ~core:0 ~pc:i ~cls:Obs.Event.Store;
      Obs.Trace.sb_insert filtered ~core:0 ~addr:i;
      Obs.Trace.scope_push filtered ~core:0 ~column:(i land 1);
      Obs.Trace.scope_pop filtered ~core:0;
      Obs.Trace.mem_access filtered ~core:1 ~addr:i ~write:false
        ~outcome:Obs.Event.L1_hit;
      Obs.Trace.cas_result filtered ~core:1 ~addr:i ~success:true;
      Obs.Trace.sb_drain filtered ~core:1 ~addr:2 ~value:i
    done
  in
  let idle = minor_words (fun () -> skips 0) in
  let busy = minor_words (fun () -> skips 10_000) in
  Alcotest.(check (float 0.)) "minor words of 10,000 unrecorded rounds" idle busy;
  Alcotest.(check int) "nothing recorded" 0 (Obs.Trace.length filtered);
  Obs.Trace.sb_drain filtered ~core:1 ~addr:1 ~value:5;
  Alcotest.(check int) "an accepted drain is recorded" 1 (Obs.Trace.length filtered)

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
  Obs.Trace.iter_events report.Obs.Report.trace (fun (e : Obs.Event.timed) ->
      match e.event with
      | Obs.Event.Fence_stall_begin _ -> incr begins
      | Obs.Event.Fence_stall_end { cycles; _ } ->
        incr ends;
        stall_sum := !stall_sum + cycles
      | _ -> ());
  Alcotest.(check int) "begin/end paired" !begins !ends;
  Alcotest.(check int)
    "stall durations sum to the legacy counter"
    (Machine.fence_stall_cycles result)
    !stall_sum

let test_sb_insert_drain () =
  let _, report = traced_run (tiny_dekker ()) in
  let inserts = ref 0 and drains = ref 0 in
  Obs.Trace.iter_events report.Obs.Report.trace (fun (e : Obs.Event.timed) ->
      match e.event with
      | Obs.Event.Sb_insert _ -> incr inserts
      | Obs.Event.Sb_drain _ -> incr drains
      | _ -> ());
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
(* Drop warning                                                       *)
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

(* Every emitted document is JSON: each jsonl line and the whole Chrome
   trace parse, and the profile and advice documents read back
   unchanged from either rendering. *)
let test_documents_parse () =
  let module Json = Fscope_util.Json in
  let module E = Fscope_experiments in
  let w = tiny_dekker () in
  let _, report = traced_run w in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Obs.Sink.jsonl report))
  in
  Alcotest.(check int) "one jsonl line per header, event and metric"
    (1 + Obs.Report.events_count report
    + List.length (Obs.Metrics.snapshot report.Obs.Report.metrics))
    (List.length lines);
  List.iter (fun l -> ignore (Json.parse l)) lines;
  (match Json.parse (Obs.Sink.chrome report) with
  | Json.Arr items ->
    Alcotest.(check int) "chrome elements"
      (1 + report.Obs.Report.cores + Obs.Report.events_count report)
      (List.length items)
  | _ -> Alcotest.fail "chrome trace is not an array");
  let t_input, s_input = E.Profiling.advise_inputs Config.default w in
  List.iter
    (fun (what, doc) ->
      Alcotest.(check bool) (what ^ " reads back") true
        (Json.parse (Json.render doc) = doc && Json.parse (Json.render_pretty doc) = doc))
    [
      ("profile", Obs.Profile.json t_input);
      ("scoped profile", Obs.Profile.json s_input);
      ("advice", Obs.Advisor.json (Obs.Advisor.analyze ~scoped:s_input t_input));
    ]

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
          Obs.Trace.create ~ring_capacity:(1 lsl 16) ~drains:g.W.Gauges.drains ~cores ()
        in
        let _ = Machine.run ~obs:trace Config.default program in
        Alcotest.(check int) (name ^ " gauge trace undropped") 0
          (Obs.Trace.dropped trace);
        let m = Obs.Metrics.create () in
        g.W.Gauges.fold m (Obs.Trace.iter_events trace);
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

(* ------------------------------------------------------------------ *)
(* Pinned traced output                                                *)
(* ------------------------------------------------------------------ *)

(* The md5 of the jsonl, Chrome and summary renderings of traced
   dekker and wsq runs, with a 100-event ring (wrapped: the
   decode-after-wrap path) and a 2^20-event one (nothing dropped).  The
   jsonl and Chrome digests were recorded from the boxed ring the
   unboxed one replaced, the summary ones from the summary that still
   counted scope events on the decoded list, so any change in what a
   ring keeps, its order or its payloads changes a digest. *)
let pinned_trace_digests =
  [
    ("dekker/100/jsonl", "20fb28ffd0f6731e043eb0a572711b19");
    ("dekker/100/chrome", "a4942c9f8d501ccb233c2a132577c898");
    ("dekker/100/summary", "7435ba9b9c6599bf0ee609b64df5ad17");
    ("dekker/1048576/jsonl", "b3dc852d05245f0415d8b9aed563ade4");
    ("dekker/1048576/chrome", "6c4326975511e0906fdec7c5a8826fbd");
    ("dekker/1048576/summary", "e39309b27c9ae20f652f922b2faa6788");
    ("wsq/100/jsonl", "4165f429527388a708dd429faa5b25ba");
    ("wsq/100/chrome", "70de99da9409620f80737aa8501a066e");
    ("wsq/100/summary", "bcbc130fd1f64a29cd999be88e56f9a7");
    ("wsq/1048576/jsonl", "e54e8e035fea1ff6da692e5e35b17424");
    ("wsq/1048576/chrome", "b74773d6174bb29d30b58d07fd364a54");
    ("wsq/1048576/summary", "40f73daaa62b5581c77cbc06da656968");
  ]

let test_pinned_trace_digests () =
  let workloads =
    [
      ("dekker", tiny_dekker ());
      ( "wsq",
        Fscope_experiments.Exp_run.workload
          ~params:{ Registry.default_params with rounds = Some 4 }
          "wsq" );
    ]
  in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun capacity ->
          let cores = Fscope_isa.Program.thread_count w.W.Workload.program in
          let trace = Obs.Trace.create ~ring_capacity:capacity ~cores () in
          let result = Machine.run ~obs:trace Config.default w.W.Workload.program in
          let report = Option.get result.Machine.obs in
          List.iter
            (fun (format, render) ->
              let key = Printf.sprintf "%s/%d/%s" name capacity format in
              let digest = Digest.to_hex (Digest.string (render report)) in
              Alcotest.(check string) key (List.assoc key pinned_trace_digests) digest)
            [
              ("jsonl", Obs.Sink.jsonl);
              ("chrome", Obs.Sink.chrome);
              ("summary", Obs.Sink.summary);
            ])
        [ 100; 1 lsl 20 ])
    workloads

(* ------------------------------------------------------------------ *)
(* Metrics-only traces                                                 *)
(* ------------------------------------------------------------------ *)

(* A trace that records no events still runs the machine under the
   traced rules and fills the same registry: the advisor's four
   workloads under T and S give the same metrics snapshot, cycles and
   per-core CPI stacks as with a 65536-event ring, and record nothing. *)
let advised = [ "dekker"; "wsq"; "msn"; "harris" ]

let test_metrics_only_same_metrics () =
  let module E = Fscope_experiments in
  List.iter
    (fun name ->
      let w = E.Exp_run.workload name in
      let program = w.W.Workload.program in
      let cores = Fscope_isa.Program.thread_count program in
      List.iter
        (fun (variant, config) ->
          let label = name ^ "/" ^ variant in
          let run trace =
            let r = Machine.run ~obs:trace config program in
            (r, Option.get r.Machine.obs)
          in
          let ringed, ringed_rep =
            run (Obs.Trace.create ~ring_capacity:65536 ~cores ())
          in
          let bare, bare_rep = run (Obs.Trace.metrics_only ~cores ()) in
          Alcotest.(check int) (label ^ ": cycles") ringed.Machine.cycles
            bare.Machine.cycles;
          Alcotest.(check bool) (label ^ ": per-core CPI") true
            (Array.for_all2 Obs.Cpi.equal ringed.Machine.core_cpi bare.Machine.core_cpi);
          Alcotest.(check bool) (label ^ ": metrics snapshot") true
            (Obs.Metrics.snapshot ringed_rep.Obs.Report.metrics
            = Obs.Metrics.snapshot bare_rep.Obs.Report.metrics);
          Alcotest.(check bool) (label ^ ": the ring run recorded events") true
            (Obs.Report.events_count ringed_rep > 0);
          Alcotest.(check int) (label ^ ": no events recorded") 0
            (Obs.Report.events_count bare_rep))
        [
          ("T", E.Exp_run.t_config Config.default);
          ("S", E.Exp_run.s_config Config.default);
        ])
    advised

(* The md5 of [Profile.json] of both advisor inputs and of
   [Advisor.text], for each advised workload at its registry defaults.
   Recorded when the profiles still recorded events into 1024-event
   rings. *)
let pinned_advise_digests =
  [
    ( "dekker",
      ( "02ca2e715377e8bd0faf250ceec5a696",
        "cd3072a0459b19eb992c5de8622d6b86",
        "9535107598ea92b484885c3505db4751" ) );
    ( "wsq",
      ( "824a1ebf87d6e182f5fc7993cb3833ca",
        "78ed0141517f4f67eb07bb48204712ef",
        "e0bf989f810c669e6a2ba8425c22bd03" ) );
    ( "msn",
      ( "812b96b3524040afb244036d02ff7611",
        "17ecf440e00fc71319fe5edb29cec18c",
        "76ffc449ffe316d1fe21327f54281596" ) );
    ( "harris",
      ( "1043949bf04a29806c716b9c97b271b3",
        "d9fd8676f2d57645d988c10d136a1eb8",
        "9c5d453849ff370f97a451ffc8064df7" ) );
  ]

let test_advise_inputs_pinned () =
  let module E = Fscope_experiments in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun name ->
      let t_in, s_in =
        E.Profiling.advise_inputs Config.default (E.Exp_run.workload name)
      in
      let t_md5, s_md5, text_md5 = List.assoc name pinned_advise_digests in
      Alcotest.(check string) (name ^ ": traditional profile json") t_md5
        (md5 (Fscope_util.Json.render (Obs.Profile.json t_in)));
      Alcotest.(check string) (name ^ ": scoped profile json") s_md5
        (md5 (Fscope_util.Json.render (Obs.Profile.json s_in)));
      Alcotest.(check string) (name ^ ": advisor text") text_md5
        (md5 (Obs.Advisor.text (Obs.Advisor.analyze ~scoped:s_in t_in))))
    advised

let tests =
  [
    Alcotest.test_case "metrics counter" `Quick test_metrics_counter;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "histogram percentile edges" `Quick test_hist_percentile_edges;
    Alcotest.test_case "metrics gauge" `Quick test_metrics_gauge;
    Alcotest.test_case "metrics find accessors" `Quick test_metrics_find;
    Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
    QCheck_alcotest.to_alcotest prop_ring_encoding;
    Alcotest.test_case "recording an event allocates nothing" `Quick
      test_emit_allocates_nothing;
    Alcotest.test_case "tracing is timing-neutral" `Quick test_timing_neutral;
    Alcotest.test_case "fence stalls pair and sum" `Quick test_fence_pairing;
    Alcotest.test_case "sb inserts drain" `Quick test_sb_insert_drain;
    Alcotest.test_case "snapshot matches legacy stats" `Quick test_snapshot_matches_legacy;
    Alcotest.test_case "jsonl golden head" `Quick test_jsonl_golden;
    Alcotest.test_case "chrome trace shape" `Quick test_chrome_shape;
    Alcotest.test_case "summary quotes legacy total" `Quick test_summary_totals;
    Alcotest.test_case "summary drop warning" `Quick test_summary_drop_warning;
    Alcotest.test_case "emitted documents parse" `Quick test_documents_parse;
    Alcotest.test_case "traced output pinned" `Quick test_pinned_trace_digests;
    Alcotest.test_case "gauge fold deterministic" `Quick test_gauge_fold_deterministic;
    Alcotest.test_case "metrics-only traces change no metric" `Quick
      test_metrics_only_same_metrics;
    Alcotest.test_case "advisor inputs pinned" `Quick test_advise_inputs_pinned;
    Alcotest.test_case "registry round-trip" `Slow test_registry_round_trip;
    Alcotest.test_case "registry lookup" `Quick test_registry_lookup;
  ]
