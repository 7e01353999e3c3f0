module Json = Fscope_util.Json

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let metric_fields name (s : Metrics.snapshot) =
  let typed kind fields =
    ("metric", Json.Str name) :: ("type", Json.Str kind) :: fields
  in
  match s with
  | Metrics.Counter_v v -> typed "counter" [ ("value", Json.Int v) ]
  | Metrics.Histogram_v { count; sum; buckets } ->
    let bucket (floor, n) = Json.Arr [ Json.Int floor; Json.Int n ] in
    typed "histogram"
      [
        ("count", Json.Int count);
        ("sum", Json.Int sum);
        ("buckets", Json.Arr (List.map bucket buckets));
      ]
  | Metrics.Gauge_v { count; sum; min; max; last } ->
    typed "gauge"
      [
        ("count", Json.Int count);
        ("sum", Json.Int sum);
        ("min", Json.Int min);
        ("max", Json.Int max);
        ("last", Json.Int last);
      ]

let jsonl (r : Report.t) =
  let buf = Buffer.create 4096 in
  let line fields =
    Buffer.add_string buf (Json.render (Json.Obj fields));
    Buffer.add_char buf '\n'
  in
  line
    [
      ("trace", Json.Str "fscope");
      ("cycles", Json.Int r.cycles);
      ("cores", Json.Int r.cores);
      ("events", Json.Int (Report.events_count r));
      ("dropped", Json.Int r.dropped);
      ("timed_out", Json.Bool r.timed_out);
    ];
  Trace.iter_events r.trace (fun (te : Event.timed) ->
      line
        (("cycle", Json.Int te.cycle)
        :: ("core", Json.Int te.core)
        :: ("event", Json.Str (Event.name te.event))
        :: Event.args te.event));
  List.iter (fun (name, s) -> line (metric_fields name s)) (Metrics.snapshot r.metrics);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event (JSON array format)                              *)
(* ------------------------------------------------------------------ *)

(* One "fscope" process with a thread per core; one array element per
   line. *)
let chrome (r : Report.t) =
  let buf = Buffer.create 4096 in
  let element fields =
    Buffer.add_string buf (if Buffer.length buf = 0 then "[\n" else ",\n");
    Buffer.add_string buf (Json.render (Json.Obj fields))
  in
  let meta name tid label =
    element
      [
        ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.Str label) ]);
      ]
  in
  meta "process_name" 0 "fscope";
  for core = 0 to r.cores - 1 do
    meta "thread_name" core (Printf.sprintf "core %d" core)
  done;
  Trace.iter_events r.trace (fun (te : Event.timed) ->
      let name, ph =
        match Event.phase te.event with
        | `Begin -> ("fence_stall", "B")
        | `End -> ("fence_stall", "E")
        | `Instant -> (Event.name te.event, "i")
      in
      element
        ([
           ("name", Json.Str name);
           ("cat", Json.Str (Event.category te.event));
           ("ph", Json.Str ph);
         ]
        @ (if ph = "i" then [ ("s", Json.Str "t") ] else [])
        @ [
            ("ts", Json.Int te.cycle);
            ("pid", Json.Int 0);
            ("tid", Json.Int te.core);
            ("args", Json.Obj (Event.args te.event));
          ]));
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Human summary                                                       *)
(* ------------------------------------------------------------------ *)

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

let summary (r : Report.t) =
  let buf = Buffer.create 1024 in
  let snapshot = Metrics.snapshot r.metrics in
  let c name = Report.counter r name in
  let core_c i field = c (Printf.sprintf "core%d/%s" i field) in
  Printf.bprintf buf "fscope trace summary — %d cores, %d cycles (%s)\n" r.cores r.cycles
    (if r.timed_out then "TIMED OUT" else "completed");
  Printf.bprintf buf "events: %d captured, %d dropped\n" (Report.events_count r)
    r.dropped;
  if r.dropped > 0 then
    Printf.bprintf buf
      "warning: the ring overwrote %d events — event-derived counts below are \
       partial; rerun with a larger --ring-capacity\n"
      r.dropped;
  Buffer.add_char buf '\n';
  Printf.bprintf buf "%-5s %10s %10s %12s %7s\n" "core" "active" "committed"
    "fence-stall" "share";
  for i = 0 to r.cores - 1 do
    Printf.bprintf buf "%-5d %10d %10d %12d %6.1f%%\n" i (core_c i "active_cycles")
      (core_c i "committed") (core_c i "fence_stall_cycles")
      (pct (core_c i "fence_stall_cycles") (core_c i "active_cycles"))
  done;
  let sum field =
    let t = ref 0 in
    for i = 0 to r.cores - 1 do
      t := !t + core_c i field
    done;
    !t
  in
  Printf.bprintf buf "%-5s %10d %10d %12d %6.1f%%\n" "all" (sum "active_cycles")
    (sum "committed") (c "total/fence_stall_cycles")
    (pct (c "total/fence_stall_cycles") (sum "active_cycles"));
  Printf.bprintf buf "\ntotal fence-stall cycles: %d (%.1f%% of %d active)\n"
    (c "total/fence_stall_cycles")
    (pct (c "total/fence_stall_cycles") (sum "active_cycles"))
    (sum "active_cycles");
  (match List.assoc_opt "fence/stall_cycles" snapshot with
  | Some (Metrics.Histogram_v { count; sum; buckets }) when count > 0 ->
    Printf.bprintf buf "fence stalls: %d completed, %d cycles total, %.1f avg\n" count sum
      (float_of_int sum /. float_of_int count);
    Printf.bprintf buf "stall-length histogram (cycles >=): %s\n"
      (String.concat " "
         (List.map (fun (floor, n) -> Printf.sprintf "%d:%d" floor n) buckets))
  | _ -> ());
  Printf.bprintf buf
    "caches: L1 %d hits / %d misses, L2 %d hits / %d misses, %d invalidations, %d c2c\n"
    (c "mem/l1_hits") (c "mem/l1_misses") (c "mem/l2_hits") (c "mem/l2_misses")
    (c "mem/invalidations") (c "mem/c2c_transfers");
  let pushes, pops = Trace.scope_counts r.trace in
  if pushes > 0 || pops > 0 then
    Printf.bprintf buf "scopes: %d pushes, %d pops%s\n" pushes pops
      (if r.dropped > 0 then " (ring dropped events; counts partial)" else "");
  let gauges =
    List.filter_map
      (fun (name, s) ->
        match s with
        | Metrics.Histogram_v h
          when String.length name > 6 && String.sub name 0 6 = "gauge/" ->
          Some (name, h)
        | _ -> None)
      snapshot
  in
  if gauges <> [] then begin
    Printf.bprintf buf "\nworkload gauges (occupancy transitions; log2-bucket floors):\n";
    Printf.bprintf buf "%-44s %8s %8s %5s %5s %5s %5s\n" "gauge" "samples" "mean" "p50"
      "p90" "p99" "max";
    List.iter
      (fun (name, (h : Metrics.hist_snapshot)) ->
        Printf.bprintf buf "%-44s %8d %8.2f %5d %5d %5d %5d\n" name h.count
          (if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count)
          (Metrics.hist_percentile h 0.50) (Metrics.hist_percentile h 0.90)
          (Metrics.hist_percentile h 0.99) (Metrics.hist_max_floor h)
      )
      gauges
  end;
  Buffer.contents buf
