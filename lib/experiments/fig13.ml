module W = Fscope_workloads
module Config = Fscope_machine.Config
module Table = Fscope_util.Table

type bar = {
  app : string;
  variant : string;
  normalized : float;
  fence_share : float;
}

let apps ?(quick = false) () =
  let app name size =
    ( name,
      Exp_run.workload
        ~params:{ W.Registry.default_params with size = Some size }
        name )
  in
  [
    app "pst" (if quick then 256 else 768);
    app "ptc" (if quick then 128 else 256);
    app "barnes" (if quick then 64 else 192);
    app "radiosity" (if quick then 64 else 160);
  ]

let run ?quick () =
  (* One point per (app, variant); the T point doubles as the app's
     normalization baseline (runs are deterministic, so measuring T
     once is identical to measuring it again as its own baseline). *)
  let keyed =
    List.concat_map
      (fun (app, workload) ->
        List.map (fun (variant, mk) -> (app, variant, workload, mk Config.default))
          Exp_run.variants)
      (apps ?quick ())
  in
  let ms =
    Exp_run.measure_all
      (List.map (fun (_, _, w, config) -> { Exp_run.config; workload = w }) keyed)
  in
  let joined = List.combine keyed ms in
  let baseline_of app =
    match
      List.find_opt (fun ((a, variant, _, _), _) -> a = app && variant = "T") joined
    with
    | Some (_, m) -> m
    | None -> assert false
  in
  List.map
    (fun ((app, variant, _, _), m) ->
      let baseline = baseline_of app in
      {
        app;
        variant;
        normalized = float_of_int m.Exp_run.cycles /. float_of_int baseline.Exp_run.cycles;
        fence_share = m.Exp_run.fence_stall_fraction;
      })
    joined

let table bars =
  let t =
    Table.create ~title:"Fig. 13 — normalized execution time (T/S/T+/S+)"
      ~header:[ "app"; "variant"; "normalized"; "fence stalls"; "others" ]
  in
  List.iter
    (fun b ->
      Table.add_row t
        [
          b.app;
          b.variant;
          Table.cell_f b.normalized;
          Table.cell_f (b.normalized *. b.fence_share);
          Table.cell_f (b.normalized *. (1. -. b.fence_share));
        ])
    bars;
  t
