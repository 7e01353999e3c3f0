module Ss = Fscope_core.Scope_semantics
module Su = Fscope_core.Scope_unit
module Fsb = Fscope_core.Fsb
module Instr = Fscope_isa.Instr
module Reg = Fscope_isa.Reg
module Fk = Fscope_isa.Fence_kind

let r = Reg.r

(* The unit's wait condition as a variant: [`Global] for
   {!Su.wait_global}, else the scope mask. *)
let fence_scope u kind =
  let w = Su.fence_scope u kind in
  if w = Su.wait_global then `Global else `Mask w
let ld ?(flagged = false) () = Instr.Load { dst = r 1; base = r 2; off = 0; flagged }
let st ?(flagged = false) () = Instr.Store { src = r 1; base = r 2; off = 0; flagged }

let test_full_fence_waits_for_all () =
  let stream = [ ld (); st (); Instr.Fence Fk.full; ld () ] in
  Alcotest.(check (list (pair int (list int))))
    "full fence waits for everything before it"
    [ (2, [ 0; 1 ]) ]
    (Ss.fence_wait_sets stream)

let test_class_fence_scope () =
  (* op0 outside; fs_start; op2 inside; fence; fs_end; op5 outside;
     the fence waits only for op2. *)
  let stream =
    [ st (); Instr.Fs_start 1; st (); Instr.Fence Fk.class_scoped; Instr.Fs_end 1; st () ]
  in
  Alcotest.(check (list (pair int (list int))))
    "class fence sees only in-scope ops"
    [ (3, [ 2 ]) ]
    (Ss.fence_wait_sets stream)

let test_nested_scope_inner_ops_visible_to_outer () =
  (* Fig. 6: outer class A calls inner class B; ops inside B belong to
     both scopes, so A's fence waits for them too. *)
  let stream =
    [
      Instr.Fs_start 1 (* A *);
      st () (* 1: in A *);
      Instr.Fs_start 2 (* B *);
      st () (* 3: in A and B *);
      Instr.Fence Fk.class_scoped (* 4: B's fence *);
      Instr.Fs_end 2;
      Instr.Fence Fk.class_scoped (* 6: A's fence *);
      Instr.Fs_end 1;
    ]
  in
  Alcotest.(check (list (pair int (list int))))
    "inner fence waits for B ops; outer fence for both"
    [ (4, [ 3 ]); (6, [ 1; 3 ]) ]
    (Ss.fence_wait_sets stream)

let test_set_fence_waits_for_flagged () =
  let stream = [ st (); st ~flagged:true (); ld (); Instr.Fence Fk.set_scoped ] in
  Alcotest.(check (list (pair int (list int))))
    "set fence waits for flagged ops only"
    [ (3, [ 1 ]) ]
    (Ss.fence_wait_sets stream)

let test_class_fence_outside_scope_degrades () =
  let stream = [ st (); Instr.Fence Fk.class_scoped ] in
  Alcotest.(check (list (pair int (list int))))
    "unscoped class fence waits for all"
    [ (1, [ 0 ]) ]
    (Ss.fence_wait_sets stream)

let test_unbalanced_fs_end_rejected () =
  Alcotest.check_raises "unbalanced" (Invalid_argument "Scope_semantics: unbalanced fs_end")
    (fun () -> ignore (Ss.fence_wait_sets [ Instr.Fs_end 3 ]))

let test_reentered_scope_accumulates () =
  (* Two successive invocations of the same class: ops of the first
     invocation are still in the class scope at the second fence
     (removal is completion's job, not scoping's). *)
  let stream =
    [
      Instr.Fs_start 1;
      st () (* 1 *);
      Instr.Fs_end 1;
      Instr.Fs_start 1;
      Instr.Fence Fk.class_scoped (* 4 *);
      Instr.Fs_end 1;
    ]
  in
  Alcotest.(check (list (pair int (list int))))
    "scope accumulates across invocations"
    [ (4, [ 1 ]) ]
    (Ss.fence_wait_sets stream)

(* ------------------------------------------------------------------ *)
(* Property: the hardware's wait set is a superset of the reference's. *)
(* ------------------------------------------------------------------ *)

let gen_stream =
  let open QCheck2.Gen in
  let cid = int_range 1 5 in
  (* Generate a balanced stream with a stack discipline. *)
  let rec build depth remaining acc =
    if remaining <= 0 then
      (* close all open scopes *)
      return (List.rev_append acc (List.init depth (fun _ -> `Close)))
    else
      let choices =
        [ (3, return `Mem); (2, return `Fence) ]
        @ (if depth < 6 then [ (2, map (fun c -> `Open c) cid) ] else [])
        @ if depth > 0 then [ (2, return `Close) ] else []
      in
      frequency choices >>= fun ev ->
      build
        (match ev with `Open _ -> depth + 1 | `Close -> depth - 1 | `Mem | `Fence -> depth)
        (remaining - 1) (ev :: acc)
  in
  int_range 5 60 >>= fun n ->
  build 0 n [] >>= fun evs ->
  (* materialise, tracking open cids for fs_end and choosing flags *)
  let rec materialise evs stack acc =
    match evs with
    | [] -> return (List.rev acc)
    | `Open c :: rest -> materialise rest (c :: stack) (Instr.Fs_start c :: acc)
    | `Close :: rest -> (
      match stack with
      | c :: stack' -> materialise rest stack' (Instr.Fs_end c :: acc)
      | [] -> materialise rest [] acc)
    | `Mem :: rest ->
      bool >>= fun flagged ->
      bool >>= fun is_load ->
      let op = if is_load then ld ~flagged () else st ~flagged () in
      materialise rest stack (op :: acc)
    | `Fence :: rest ->
      oneofl
        [ Fk.full; Fk.class_scoped; Fk.set_scoped; Fk.store_store Fk.class_scoped;
          Fk.load_load Fk.set_scoped; Fk.store_load Fk.full; Fk.store_store Fk.full ]
      >>= fun kind -> materialise rest stack (Instr.Fence kind :: acc)
  in
  materialise evs [] []

let hardware_wait_sets config stream =
  (* Drive the scope unit as the dispatch stage would (no branches,
     no completions: bits stay set) and record, per fence, which of
     the earlier memory ops the fence would wait on. *)
  let u = Su.create config in
  let mem_masks = ref [] in (* (index, mask), newest first *)
  let results = ref [] in
  List.iteri
    (fun idx instr ->
      match instr with
      | Instr.Fs_start cid -> Su.on_fs_start u ~cid
      | Instr.Fs_end cid -> Su.on_fs_end u ~cid
      | Instr.Load { flagged; _ } | Instr.Store { flagged; _ } | Instr.Cas { flagged; _ }
        ->
        let mask = Su.decode_mask u ~flagged in
        Su.on_bits_set u mask;
        mem_masks := (idx, mask) :: !mem_masks
      | Instr.Fence kind ->
        (* The core additionally filters the wait set by the fence's
           flavour; model that here exactly as Core_issue.older_access
           does (CAS counts as a load and as a store). *)
        let flavour_keeps i =
          match List.nth stream i with
          | Instr.Load _ -> kind.Fk.wait_loads
          | Instr.Store _ -> kind.Fk.wait_stores
          | Instr.Cas _ -> kind.Fk.wait_loads || kind.Fk.wait_stores
          | _ -> false
        in
        let waits =
          match fence_scope u kind with
          | `Global -> List.rev_map fst !mem_masks
          | `Mask m ->
            List.rev
              (List.filter_map
                 (fun (i, mask) ->
                   if Fsb.is_empty (Fsb.inter mask m) then None else Some i)
                 !mem_masks)
        in
        let waits = List.filter flavour_keeps waits in
        results := (idx, List.sort Int.compare waits) :: !results
      | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Branch _
      | Instr.Jump _ | Instr.Halt ->
        ())
    stream;
  List.rev !results

let subset a b = List.for_all (fun x -> List.mem x b) a

let print_stream stream =
  String.concat "; " (List.mapi (fun i instr -> Printf.sprintf "%d:%s" i (Instr.to_string instr)) stream)

let prop_hardware_superset config =
  QCheck2.Test.make ~count:300
    ~name:
      (Printf.sprintf "hardware (fsb=%d fss=%d mt=%d) waits >= Fig.5 semantics"
         config.Su.fsb_entries config.Su.fss_entries config.Su.mt_entries)
    ~print:print_stream gen_stream
    (fun stream ->
      let reference = Ss.fence_wait_sets stream in
      let hardware = hardware_wait_sets config stream in
      List.for_all2
        (fun (i_ref, ref_set) (i_hw, hw_set) -> i_ref = i_hw && subset ref_set hw_set)
        reference hardware)

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hardware_superset Su.default_config;
      prop_hardware_superset { Su.default_config with fsb_entries = 2 };
      prop_hardware_superset { Su.default_config with fss_entries = 1; mt_entries = 1 };
      prop_hardware_superset { Su.default_config with fsb_entries = 8; fss_entries = 8 };
    ]

let tests =
  [
    Alcotest.test_case "full fence waits for all" `Quick test_full_fence_waits_for_all;
    Alcotest.test_case "class fence scope" `Quick test_class_fence_scope;
    Alcotest.test_case "nested scopes (Fig. 6)" `Quick
      test_nested_scope_inner_ops_visible_to_outer;
    Alcotest.test_case "set fence waits for flagged" `Quick test_set_fence_waits_for_flagged;
    Alcotest.test_case "unscoped class fence degrades" `Quick
      test_class_fence_outside_scope_degrades;
    Alcotest.test_case "unbalanced fs_end" `Quick test_unbalanced_fs_end_rejected;
    Alcotest.test_case "scope accumulates" `Quick test_reentered_scope_accumulates;
  ]
  @ prop_tests
