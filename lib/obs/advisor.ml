(* Profile-guided fence advice: which static fence site should become
   scoped first, and what is that worth?

   The advisor is a pure analysis pass over the per-static-fence-site
   stall tables a traced run already collects (see Profile.site_rows):
   it never re-runs anything.  Given a profile of the subject run —
   normally the traditional-fence configuration, where every site is a
   candidate — it splits each core's unscoped fence-wait CPI cycles
   across that core's sites in proportion to their observed stall
   cycles, subtracts the residual cost the same site still pays in a
   scoped run of the same program (when the caller supplies one), and
   ranks sites by the difference: the expected cycles recovered if the
   site's fence is scoped.

   The whole-run prediction uses the per-core critical path rather
   than aggregate stall totals: a simulated run ends when its slowest
   core does, and recovered stall cycles on a non-critical core
   convert to spin or idle time, not to a shorter run.  So

     predicted_speedup = max_c active_T(c)
                       / max_c (active_T(c) - recovery(c))

   with recovery(c) clamped to core c's unscoped fence-wait cycles.
   Calibrated against this repo's measured T/S cycle ratios, the model
   lands within a few percent per workload and reproduces the paper's
   per-workload speedup ordering (see paper_speedups and the advisor
   tests). *)

type confidence = High | Medium | Low

let confidence_name = function High -> "high" | Medium -> "medium" | Low -> "low"

type advice = {
  core : int;
  pc : int;
  kind : string;
  commits : int;
  episodes : int;  (* completed stall episodes observed at the site *)
  site_stall : int;  (* observed stall cycles at the site, subject run *)
  stall_share : float;  (* share of all observed site stalls, in [0,1] *)
  attributed : float;  (* unscoped fence-wait cycles attributed to the site *)
  residual : float;  (* modeled residual cost once scoped *)
  recovery : float;  (* max 0 (attributed - residual) *)
  confidence : confidence;
}

type t = {
  label : string;
  config : string;
  cycles : int;
  cores : int;
  modeled_residuals : bool;
      (* residuals taken from a scoped run of the same program; without
         one every residual is 0 and recoveries are upper bounds *)
  advice : advice list;  (* ranked by recovery, descending *)
  total_unscoped : int;  (* unscoped fence-wait cycles, all cores *)
  total_recovery : float;
  predicted_speedup : float;
}

(* The scoped run indexes residuals by (core, pc): the subject and
   scoped profiles run the same program image, so static sites align
   exactly. *)
let residual_table (scoped : Profile.input option) =
  match scoped with
  | None -> fun _ -> 0
  | Some s ->
    let rows = Profile.site_rows s in
    fun (core, pc) ->
      List.fold_left
        (fun acc (r : Profile.site_row) ->
          if r.site.core = core && r.site.pc = pc then
            acc + r.stall.Profile.stall_cycles
          else acc)
        0 rows

let confidence_of ~modeled ~episodes =
  if not modeled then Low
  else if episodes < 4 then Low
  else if episodes < 16 then Medium
  else High

let analyze ?scoped (input : Profile.input) =
  if input.metrics = None then
    failwith "advisor: needs a traced profile (no metrics registry)";
  let rows = Profile.site_rows input in
  let cores = Array.length input.cpi in
  let unscoped_of c = Cpi.fence_scope_cycles input.cpi.(c) Unscoped in
  let core_stall = Array.make cores 0 in
  List.iter
    (fun (r : Profile.site_row) ->
      if r.site.core < cores then
        core_stall.(r.site.core) <-
          core_stall.(r.site.core) + r.stall.Profile.stall_cycles)
    rows;
  let all_stall = Array.fold_left ( + ) 0 core_stall in
  let residual_at = residual_table scoped in
  let modeled = scoped <> None in
  let advice =
    List.map
      (fun (r : Profile.site_row) ->
        let c = r.site.core in
        let stall = r.stall.Profile.stall_cycles in
        let attributed =
          if c >= cores || core_stall.(c) = 0 then 0.0
          else
            float_of_int (unscoped_of c)
            *. float_of_int stall /. float_of_int core_stall.(c)
        in
        let residual = float_of_int (residual_at (c, r.site.pc)) in
        {
          core = c;
          pc = r.site.pc;
          kind = r.site.kind;
          commits = r.commits;
          episodes = r.stall.Profile.episodes;
          site_stall = stall;
          stall_share =
            (if all_stall = 0 then 0.0
             else float_of_int stall /. float_of_int all_stall);
          attributed;
          residual;
          recovery = Float.max 0.0 (attributed -. residual);
          confidence = confidence_of ~modeled ~episodes:r.stall.Profile.episodes;
        })
      rows
  in
  let advice =
    List.stable_sort
      (fun a b ->
        match Float.compare b.recovery a.recovery with
        | 0 -> ( match Int.compare a.core b.core with 0 -> Int.compare a.pc b.pc | n -> n)
        | n -> n)
      advice
  in
  (* Per-core recovery, clamped to the core's unscoped fence cycles:
     proportional attribution can't recover more than the core ever
     waited unscoped. *)
  let core_recovery = Array.make cores 0.0 in
  List.iter
    (fun a ->
      if a.core < cores then core_recovery.(a.core) <- core_recovery.(a.core) +. a.recovery)
    advice;
  Array.iteri
    (fun c r -> core_recovery.(c) <- Float.min r (float_of_int (unscoped_of c)))
    core_recovery;
  let max_active = ref 0.0 in
  let max_post = ref 0.0 in
  Array.iteri
    (fun c active ->
      let active = float_of_int active in
      let post = active -. (if c < cores then core_recovery.(c) else 0.0) in
      if active > !max_active then max_active := active;
      if post > !max_post then max_post := post)
    input.core_active;
  let total_unscoped = ref 0 in
  for c = 0 to cores - 1 do
    total_unscoped := !total_unscoped + unscoped_of c
  done;
  {
    label = input.label;
    config = input.config;
    cycles = input.cycles;
    cores;
    modeled_residuals = modeled;
    advice;
    total_unscoped = !total_unscoped;
    total_recovery = Array.fold_left ( +. ) 0.0 core_recovery;
    predicted_speedup =
      (if !max_post < 1.0 then 1.0 else !max_active /. !max_post);
  }

let predicted_speedup ?scoped input = (analyze ?scoped input).predicted_speedup

(* ------------------------------------------------------------------ *)
(* Paper reference data                                                 *)

(* Per-workload S-Fence speedup from the paper's figures, one number
   per workload as calibrated in EXPERIMENTS.md: the Fig. 12 peak
   speedup for the harness benchmarks (dekker, wsq, msn, harris) and
   the Fig. 13 whole-app gain for the rest (barnes and radiosity are
   quoted there as 19.5% / 15.8% fence-stall cuts; 1/(1-x) converts to
   a speedup).  The advisor's predicted ordering over these eight is
   asserted against this table. *)
let paper_speedups =
  [
    ("msn", 1.30);
    ("dekker", 1.29);
    ("barnes", 1.242);
    ("wsq", 1.22);
    ("radiosity", 1.188);
    ("harris", 1.13);
    ("pst", 1.11);
    ("ptc", 1.043);
  ]

(* Ordering agreement under an epsilon: a pair of workloads counts as a
   violation only when BOTH lists separate it by more than [min_gap]
   and the two lists disagree on its direction.  Near-ties (the paper's
   pst/ptc gap is 0.067, and this repo's calibrated reproduction
   documents adjacent swaps at that scale) are not evidence either
   way. *)
let ordering_violations ~min_gap a b =
  let pairs = ref [] in
  List.iteri
    (fun i (na, va) ->
      List.iteri
        (fun j (nb, vb) ->
          if j > i then
            match (List.assoc_opt na b, List.assoc_opt nb b) with
            | Some wa, Some wb ->
              if
                Float.abs (va -. vb) > min_gap
                && Float.abs (wa -. wb) > min_gap
                && (va -. vb) *. (wa -. wb) < 0.0
              then pairs := (na, nb) :: !pairs
            | _ -> ())
        a)
    a;
  List.rev !pairs

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)

let text t =
  let b = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "fence advice — %s [%s]  cores=%d  cycles=%d\n" t.label t.config t.cores t.cycles;
  p "unscoped fence-wait cycles: %d; predicted recovery: %.0f\n" t.total_unscoped
    t.total_recovery;
  p "predicted speedup if every ranked site is scoped: %.3fx\n" t.predicted_speedup;
  p "residual scoped cost: %s\n"
    (if t.modeled_residuals then "modeled from a scoped run of the same program"
     else "not modeled (no scoped run supplied) — recoveries are upper bounds");
  (match t.advice with
  | [] -> p "\nno static fence sites in the program\n"
  | advice ->
    p "\n  %-4s %-4s %-6s %-18s %9s %7s %7s %10s %9s %9s %6s\n" "rank" "core" "pc"
      "kind" "commits" "stalls" "share" "attributed" "residual" "recovery" "conf";
    List.iteri
      (fun i a ->
        p "  %-4d %-4d %-6d %-18s %9d %7d %6.1f%% %10.0f %9.0f %9.0f %6s\n" (i + 1)
          a.core a.pc a.kind a.commits a.episodes
          (100.0 *. a.stall_share)
          a.attributed a.residual a.recovery
          (confidence_name a.confidence))
      advice);
  Buffer.contents b

module Json = Fscope_util.Json

let json t =
  let advice i a =
    Json.Obj
      [
        ("rank", Json.Int (i + 1));
        ("core", Json.Int a.core);
        ("pc", Json.Int a.pc);
        ("kind", Json.Str a.kind);
        ("commits", Json.Int a.commits);
        ("stalls", Json.Int a.episodes);
        ("stall_cycles", Json.Int a.site_stall);
        ("stall_share", Json.fixed 4 a.stall_share);
        ("attributed", Json.fixed 2 a.attributed);
        ("residual", Json.fixed 2 a.residual);
        ("recovery", Json.fixed 2 a.recovery);
        ("confidence", Json.Str (confidence_name a.confidence));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "fence-scoping/advice/v1");
      ("label", Json.Str t.label);
      ("config", Json.Str t.config);
      ("cores", Json.Int t.cores);
      ("cycles", Json.Int t.cycles);
      ("modeled_residuals", Json.Bool t.modeled_residuals);
      ("total_unscoped", Json.Int t.total_unscoped);
      ("total_recovery", Json.fixed 2 t.total_recovery);
      ("predicted_speedup", Json.fixed 4 t.predicted_speedup);
      ("advice", Json.Arr (List.mapi advice t.advice));
    ]
