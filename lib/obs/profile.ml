(* Rendering of cycle-accounting profiles: CPI stacks, per-static-
   fence-site tables, per-scope (cid) attribution and spin sites, as
   aligned text or JSON.  Pure presentation: the caller supplies the
   per-core CPI tables, the traced metrics registry, and the static
   site lists it extracted from the program image. *)

type fence_site = {
  core : int;
  pc : int;
  kind : string;
}

type input = {
  label : string;
  config : string;
  cycles : int;
  timed_out : bool;
  cpi : Cpi.t array;
  core_active : int array;
      (* per-core active cycles from the independent legacy counter;
         the renderers check the CPI leaves sum to exactly this *)
  metrics : Metrics.t option;
  fence_sites : fence_site list;
  cids : int list;
  spin_pcs : (int * int) list;
  spin_ff : (int * int * int) option;
      (* engine spin fast-forward counters (sleeps, cycles skipped,
         wakes) from a matching untraced run — tracing disables the
         optimisation, so the traced run itself always reports zero *)
}

let active_cycles input = Array.fold_left ( + ) 0 input.core_active

let aggregate input =
  let into = Cpi.create () in
  Array.iter (fun t -> Cpi.accumulate ~into t) input.cpi;
  into

let counter_or_zero metrics name =
  match Metrics.find_counter metrics name with Some v -> v | None -> 0

(* Stall summary of one histogram: episode count, total cycles, mean
   per episode, and the floor of the highest non-empty bucket (a lower
   bound on the longest episode). *)
type stall_summary = {
  episodes : int;
  stall_cycles : int;
  mean : float;
  max_floor : int;
}

let stall_of_histogram = function
  | None -> { episodes = 0; stall_cycles = 0; mean = 0.0; max_floor = 0 }
  | Some (h : Metrics.hist_snapshot) ->
    {
      episodes = h.count;
      stall_cycles = h.sum;
      mean = (if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count);
      max_floor = Metrics.hist_max_floor h;
    }

type site_row = {
  site : fence_site;
  commits : int;
  scoped_commits : int;
  stall : stall_summary;
}

let site_rows input =
  match input.metrics with
  | None -> []
  | Some m ->
    List.map
      (fun site ->
        let name suffix = Printf.sprintf "core%d/fence_pc%d/%s" site.core site.pc suffix in
        {
          site;
          commits = counter_or_zero m (name "commits");
          scoped_commits = counter_or_zero m (name "scoped_commits");
          stall = stall_of_histogram (Metrics.find_histogram m (name "stall_cycles"));
        })
      input.fence_sites

type cid_row = {
  cid : int;
  cid_commits : int;
  cid_stall : stall_summary;
}

let cid_rows input =
  match input.metrics with
  | None -> []
  | Some m ->
    List.map
      (fun cid ->
        {
          cid;
          cid_commits = counter_or_zero m (Printf.sprintf "cid%d/commits" cid);
          cid_stall =
            stall_of_histogram
              (Metrics.find_histogram m (Printf.sprintf "cid%d/stall_cycles" cid));
        })
      input.cids

let spin_rows input =
  match input.metrics with
  | None -> []
  | Some m ->
    List.filter_map
      (fun (core, pc) ->
        let n = counter_or_zero m (Printf.sprintf "core%d/spin/pc%d" core pc) in
        if n > 0 then Some (core, pc, n) else None)
      input.spin_pcs

let pct ~den v =
  if den = 0 then 0.0 else 100.0 *. float_of_int v /. float_of_int den

(* ------------------------------------------------------------------ *)
(* Text                                                               *)

let text input =
  let b = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let active = active_cycles input in
  let agg = aggregate input in
  (* Column widths follow the data: a 64-core run has 2-digit core ids
     and 5-digit pcs, which the fixed widths of the first renderer
     silently misaligned. *)
  let digits n = String.length (string_of_int (max 0 n)) in
  let core_w = max 4 (digits (Array.length input.cpi - 1)) in
  let pc_w =
    List.fold_left
      (fun acc (site : fence_site) -> max acc (digits site.pc))
      (List.fold_left (fun acc (_, pc) -> max acc (digits pc)) 5 input.spin_pcs)
      input.fence_sites
  in
  p "cycle-accounting profile — %s [%s]  cores=%d  cycles=%d  active-cycles=%d%s\n"
    input.label input.config (Array.length input.cpi) input.cycles active
    (if input.timed_out then "  [TIMED OUT at cycle cap]" else "");
  p "\nCPI stack (all cores):\n";
  List.iter
    (fun leaf ->
      let v = Cpi.get agg leaf in
      p "  %-24s %12d  %5.1f%%\n" (Cpi.name leaf) v (pct ~den:active v))
    Cpi.leaves;
  p "  %-24s %12d  %5.1f%%  %s\n" "total" (Cpi.total agg)
    (pct ~den:active (Cpi.total agg))
    (if Cpi.total agg = active then "(= active cycles: ok)"
     else "(MISMATCH vs active cycles)");
  p "\nper-core: leaves sum / active cycles\n";
  Array.iteri
    (fun i t ->
      let sum = Cpi.total t in
      let active_i = if i < Array.length input.core_active then input.core_active.(i) else 0 in
      p "  core %-*d %12d / %-12d %s\n" (max 2 (digits (Array.length input.cpi - 1))) i sum active_i
        (if sum = active_i then "ok" else "MISMATCH"))
    input.cpi;
  (match site_rows input with
  | [] -> p "\nfence sites: (untraced run — no site attribution)\n"
  | rows ->
    p "\nfence sites:\n";
    p "  %-*s %-*s %-18s %9s %7s %8s %11s %9s %7s\n" core_w "core" pc_w "pc" "kind"
      "commits" "scoped" "stalls" "stall-cyc" "mean" "max>=";
    List.iter
      (fun r ->
        p "  %-*d %-*d %-18s %9d %7d %8d %11d %9.1f %7d\n" core_w r.site.core pc_w
          r.site.pc r.site.kind r.commits r.scoped_commits r.stall.episodes
          r.stall.stall_cycles r.stall.mean r.stall.max_floor)
      rows);
  (match cid_rows input with
  | [] -> ()
  | rows ->
    p "\nscopes (cid):\n";
    p "  %-6s %9s %8s %11s %9s\n" "cid" "commits" "stalls" "stall-cyc" "mean";
    List.iter
      (fun r ->
        p "  %-6d %9d %8d %11d %9.1f\n" r.cid r.cid_commits r.cid_stall.episodes
          r.cid_stall.stall_cycles r.cid_stall.mean)
      rows);
  (match spin_rows input with
  | [] -> ()
  | rows ->
    p "\nspin candidates (backward edges re-taken with no visible write):\n";
    p "  %-*s %-*s %12s\n" core_w "core" pc_w "pc" "iterations";
    List.iter (fun (core, pc, n) -> p "  %-*d %-*d %12d\n" core_w core pc_w pc n) rows);
  (match input.spin_ff with
  | None -> ()
  | Some (sleeps, skipped, wakes) ->
    p "\nspin fast-forward (engine, untraced run): sleeps=%d  cycles-skipped=%d  wakes=%d\n"
      sleeps skipped wakes);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)

module Json = Fscope_util.Json

let cpi_json t =
  Json.Obj (List.map (fun leaf -> (Cpi.name leaf, Json.Int (Cpi.get t leaf))) Cpi.leaves)

let stall_fields (s : stall_summary) =
  [
    ("stalls", Json.Int s.episodes);
    ("stall_cycles", Json.Int s.stall_cycles);
    ("mean", Json.fixed 2 s.mean);
  ]

let json input =
  let agg = aggregate input in
  let active_of i =
    if i < Array.length input.core_active then input.core_active.(i) else 0
  in
  let per_core i t =
    Json.Obj
      [
        ("core", Json.Int i);
        ("active", Json.Int (active_of i));
        ("leaf_sum", Json.Int (Cpi.total t));
        ("cpi", cpi_json t);
      ]
  in
  let site r =
    Json.Obj
      ([
         ("core", Json.Int r.site.core);
         ("pc", Json.Int r.site.pc);
         ("kind", Json.Str r.site.kind);
         ("commits", Json.Int r.commits);
         ("scoped_commits", Json.Int r.scoped_commits);
       ]
      @ stall_fields r.stall
      @ [ ("max_floor", Json.Int r.stall.max_floor) ])
  in
  let scope r =
    Json.Obj
      (("cid", Json.Int r.cid)
      :: ("commits", Json.Int r.cid_commits)
      :: stall_fields r.cid_stall)
  in
  let spin (core, pc, n) =
    Json.Obj [ ("core", Json.Int core); ("pc", Json.Int pc); ("iterations", Json.Int n) ]
  in
  Json.Obj
    [
      ("schema", Json.Str "fence-scoping/profile/v2");
      ("label", Json.Str input.label);
      ("config", Json.Str input.config);
      ("cores", Json.Int (Array.length input.cpi));
      ("cycles", Json.Int input.cycles);
      ("timed_out", Json.Bool input.timed_out);
      ("active_cycles", Json.Int (active_cycles input));
      ("cpi", cpi_json agg);
      ("cpi_sums_to_active", Json.Bool (Cpi.total agg = active_cycles input));
      ("per_core", Json.Arr (List.mapi per_core (Array.to_list input.cpi)));
      ("fence_sites", Json.Arr (List.map site (site_rows input)));
      ("scopes", Json.Arr (List.map scope (cid_rows input)));
      ("spin_sites", Json.Arr (List.map spin (spin_rows input)));
      ( "spin_ff",
        match input.spin_ff with
        | None -> Json.Null
        | Some (sleeps, skipped, wakes) ->
          Json.Obj
            [
              ("sleeps", Json.Int sleeps);
              ("cycles_skipped", Json.Int skipped);
              ("wakes", Json.Int wakes);
            ] );
    ]
