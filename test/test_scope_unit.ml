module Su = Fscope_core.Scope_unit
module Fsb = Fscope_core.Fsb
module Fk = Fscope_isa.Fence_kind

let cfg = Su.default_config

let mask_of_cols cols = List.fold_left (fun m c -> Fsb.union m (Fsb.column c)) Fsb.empty cols

let test_fig9_nested_scopes () =
  (* The paper's Fig. 9: fs_start a; I0; I1; fs_start b; I2..I4; fs_end b;
     I5; I6; fs_end a; I7.  Inner ops flag both columns; after the outer
     fs_end nothing is flagged. *)
  let u = Su.create cfg in
  Alcotest.(check int) "initially unflagged" Fsb.empty (Su.decode_mask u ~flagged:false);
  Su.on_fs_start u ~cid:10;
  let outer = Su.decode_mask u ~flagged:false in
  Alcotest.(check int) "outer only" (mask_of_cols [ 0 ]) outer;
  Su.on_fs_start u ~cid:11;
  Alcotest.(check int) "inner sets both" (mask_of_cols [ 0; 1 ])
    (Su.decode_mask u ~flagged:false);
  Su.on_fs_end u ~cid:11;
  Alcotest.(check int) "back to outer" (mask_of_cols [ 0 ]) (Su.decode_mask u ~flagged:false);
  Su.on_fs_end u ~cid:10;
  Alcotest.(check int) "empty after outer end" Fsb.empty (Su.decode_mask u ~flagged:false)

let test_same_cid_same_column () =
  let u = Su.create cfg in
  Su.on_fs_start u ~cid:7;
  let m1 = Su.decode_mask u ~flagged:false in
  Su.on_fs_end u ~cid:7;
  Su.on_fs_start u ~cid:7;
  let m2 = Su.decode_mask u ~flagged:false in
  Alcotest.(check int) "same column reused" m1 m2

let test_set_column () =
  let u = Su.create cfg in
  Alcotest.(check int) "set column is last" (cfg.fsb_entries - 1) (Su.set_column u);
  let m = Su.decode_mask u ~flagged:true in
  Alcotest.(check int) "flagged op sets the set column"
    (Fsb.column (Su.set_column u)) m;
  match Su.fence_scope u Fk.set_scoped with
  | `Mask m' -> Alcotest.(check int) "set fence checks set column" m m'
  | `Global -> Alcotest.fail "set fence should be scoped"

let test_class_fence_scope_is_top () =
  let u = Su.create cfg in
  Su.on_fs_start u ~cid:1;
  Su.on_fs_start u ~cid:2;
  (match Su.fence_scope u Fk.class_scoped with
  | `Mask m -> Alcotest.(check int) "inner fence checks top column" (Fsb.column 1) m
  | `Global -> Alcotest.fail "expected scoped");
  Su.on_fs_end u ~cid:2;
  match Su.fence_scope u Fk.class_scoped with
  | `Mask m -> Alcotest.(check int) "outer fence checks bottom column" (Fsb.column 0) m
  | `Global -> Alcotest.fail "expected scoped"

let test_full_fence_always_global () =
  let u = Su.create cfg in
  Su.on_fs_start u ~cid:1;
  match Su.fence_scope u Fk.full with
  | `Global -> ()
  | `Mask _ -> Alcotest.fail "full fence must be global"

let test_class_fence_outside_scope_is_global () =
  let u = Su.create cfg in
  match Su.fence_scope u Fk.class_scoped with
  | `Global -> ()
  | `Mask _ -> Alcotest.fail "unscoped class fence must degrade to global"

let test_disabled_unit () =
  let u = Su.create { cfg with enabled = false } in
  Su.on_fs_start u ~cid:1;
  Alcotest.(check int) "no flags when disabled" Fsb.empty (Su.decode_mask u ~flagged:true);
  match Su.fence_scope u Fk.class_scoped with
  | `Global -> ()
  | `Mask _ -> Alcotest.fail "disabled unit must be global"

let test_fss_overflow_counter () =
  (* fss_entries = 2: the third nested scope overflows; fences decoded
     during overflow behave as full fences; after the matching fs_end
     the unit recovers. *)
  let u = Su.create { cfg with fss_entries = 2 } in
  Su.on_fs_start u ~cid:1;
  Su.on_fs_start u ~cid:2;
  Alcotest.(check bool) "not yet overflowing" false (Su.in_overflow u);
  Su.on_fs_start u ~cid:3;
  Alcotest.(check bool) "overflowing" true (Su.in_overflow u);
  (match Su.fence_scope u Fk.class_scoped with
  | `Global -> ()
  | `Mask _ -> Alcotest.fail "fence during overflow must be global");
  Su.on_fs_end u ~cid:3;
  Alcotest.(check bool) "recovered" false (Su.in_overflow u);
  match Su.fence_scope u Fk.class_scoped with
  | `Mask _ -> ()
  | `Global -> Alcotest.fail "fence after recovery should be scoped"

let test_column_sharing_when_exhausted () =
  (* 3 FSB columns => 2 class columns.  Three simultaneously active
     distinct classes must share: the third maps to the overflow
     column, never to the set column. *)
  let u = Su.create { cfg with fsb_entries = 3; fss_entries = 4 } in
  Su.on_fs_start u ~cid:1;
  Su.on_fs_start u ~cid:2;
  Su.on_fs_start u ~cid:3;
  Alcotest.(check bool) "no overflow counter needed" false (Su.in_overflow u);
  let m = Su.decode_mask u ~flagged:false in
  Alcotest.(check bool) "set column untouched" false (Fsb.mem 2 m);
  Alcotest.(check int) "three scopes on two columns" (mask_of_cols [ 0; 1 ]) m

let test_overflow_ops_conservatively_flagged () =
  (* Regression for a hole the property test found in the paper's
     counter sketch: ops decoded during overflow must carry every
     class column, or a fence in a re-entered scope (whose mapping
     survived the overflow) would miss them. *)
  let u = Su.create { cfg with fss_entries = 1; mt_entries = 1 } in
  Su.on_fs_start u ~cid:2;
  let m = Su.decode_mask u ~flagged:false in
  Su.on_bits_set u m (* an op in scope 2, never completing *);
  Su.on_fs_end u ~cid:2;
  Su.on_fs_start u ~cid:1 (* MT full -> counter mode *);
  Alcotest.(check bool) "overflowed" true (Su.in_overflow u);
  let m_ov = Su.decode_mask u ~flagged:false in
  Su.on_fs_end u ~cid:1;
  Su.on_fs_start u ~cid:2 (* re-enter scope 2: same column *);
  match Su.fence_scope u Fk.class_scoped with
  | `Mask fence_mask ->
    Alcotest.(check bool) "fence sees the overflow-time op" false
      (Fsb.is_empty (Fsb.inter fence_mask m_ov))
  | `Global -> () (* even stricter: also fine *)

let test_outstanding_accounting () =
  let u = Su.create cfg in
  Su.on_fs_start u ~cid:1;
  let m = Su.decode_mask u ~flagged:false in
  Su.on_bits_set u m;
  Su.on_bits_set u m;
  Alcotest.(check int) "two outstanding" 2 (Su.outstanding u 0);
  Su.on_bits_cleared u m;
  Alcotest.(check int) "one left" 1 (Su.outstanding u 0);
  Su.on_bits_cleared u m;
  Alcotest.(check int) "drained" 0 (Su.outstanding u 0)

let test_mispredict_restores_fss () =
  (* fs_start a; branch (unresolved); wrong-path fs_end a + fs_start b;
     mispredict => FSS must be [a's column] again. *)
  let u = Su.create cfg in
  Su.on_fs_start u ~cid:1;
  let before = Su.live_stack u in
  Su.on_branch u ~id:100;
  Su.on_fs_end u ~cid:1;
  Su.on_fs_start u ~cid:2;
  Alcotest.(check bool) "wrong path changed FSS" true (Su.live_stack u <> before);
  Su.on_branch_mispredict u ~id:100;
  Alcotest.(check (list int)) "FSS restored" before (Su.live_stack u)

let test_mispredict_with_older_unresolved_branch () =
  (* branch A (stays unresolved); fs_start a; branch B; wrong-path
     fs_start b; B mispredicts.  The restore must keep fs_start a even
     though A has not resolved, because a was decoded before B. *)
  let u = Su.create cfg in
  Su.on_branch u ~id:1;
  Su.on_fs_start u ~cid:5;
  let correct = Su.live_stack u in
  Su.on_branch u ~id:2;
  Su.on_fs_start u ~cid:6;
  Su.on_branch_mispredict u ~id:2;
  Alcotest.(check (list int)) "ops older than B survive" correct (Su.live_stack u);
  (* Now A resolves correctly: the confirmed stack catches up. *)
  Su.on_branch_correct u ~id:1;
  Alcotest.(check (list int)) "FSS' caught up" correct (Su.confirmed_stack u)

let test_confirmed_lags_speculation () =
  let u = Su.create cfg in
  Su.on_branch u ~id:9;
  Su.on_fs_start u ~cid:3;
  Alcotest.(check (list int)) "FSS' not yet updated" [] (Su.confirmed_stack u);
  Su.on_branch_correct u ~id:9;
  Alcotest.(check (list int)) "FSS' updated after confirm" (Su.live_stack u)
    (Su.confirmed_stack u)

let test_counter_restored_on_mispredict () =
  let u = Su.create { cfg with fss_entries = 1 } in
  Su.on_fs_start u ~cid:1;
  Su.on_branch u ~id:50;
  Su.on_fs_start u ~cid:2;
  (* wrong path pushed into overflow *)
  Alcotest.(check bool) "overflow on wrong path" true (Su.in_overflow u);
  Su.on_branch_mispredict u ~id:50;
  Alcotest.(check bool) "counter restored" false (Su.in_overflow u)

(* Fsb allows 62 columns; the top one is the int's highest bit. *)
let test_top_fsb_column () =
  Alcotest.(check (list int)) "column 61 listed" [ 0; 61 ] (Fsb.columns (mask_of_cols [ 0; 61 ]));
  let u = Su.create { cfg with fsb_entries = 62 } in
  Alcotest.(check int) "set column is 61" 61 (Su.set_column u);
  Alcotest.check_raises "63 columns rejected"
    (Invalid_argument "Scope_unit: fsb_entries must be in 1..62") (fun () ->
      Su.validate { cfg with fsb_entries = 63 })

let tests =
  [
    Alcotest.test_case "fig9 nested scopes" `Quick test_fig9_nested_scopes;
    Alcotest.test_case "same cid same column" `Quick test_same_cid_same_column;
    Alcotest.test_case "set column" `Quick test_set_column;
    Alcotest.test_case "class fence scope is FSS top" `Quick test_class_fence_scope_is_top;
    Alcotest.test_case "full fence global" `Quick test_full_fence_always_global;
    Alcotest.test_case "unscoped class fence global" `Quick
      test_class_fence_outside_scope_is_global;
    Alcotest.test_case "disabled unit" `Quick test_disabled_unit;
    Alcotest.test_case "FSS overflow counter" `Quick test_fss_overflow_counter;
    Alcotest.test_case "column sharing" `Quick test_column_sharing_when_exhausted;
    Alcotest.test_case "overflow ops conservatively flagged" `Quick
      test_overflow_ops_conservatively_flagged;
    Alcotest.test_case "outstanding accounting" `Quick test_outstanding_accounting;
    Alcotest.test_case "mispredict restores FSS" `Quick test_mispredict_restores_fss;
    Alcotest.test_case "mispredict with older branch" `Quick
      test_mispredict_with_older_unresolved_branch;
    Alcotest.test_case "FSS' lags speculation" `Quick test_confirmed_lags_speculation;
    Alcotest.test_case "counter restored" `Quick test_counter_restored_on_mispredict;
    Alcotest.test_case "top FSB column" `Quick test_top_fsb_column;
  ]
