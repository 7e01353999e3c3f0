(* Writing your own scoped-fence data structure.

   This example builds a Treiber-style lock-free stack as a slang
   class with a class-scoped fence, drives it from four threads, and
   compares traditional vs scoped fences — the workflow a user of this
   library follows for any new concurrent algorithm:

     1. write the data structure as a class, with S-FENCE[class] at
        the points your memory-model reasoning requires;
     2. write a harness whose threads call it (and do out-of-scope
        work in between);
     3. compile, run on both machine variants, and *validate the
        functional result from the final memory image*.

     dune exec examples/custom_algorithm.exe *)

module Ast = Fscope_slang.Ast
module Config = Fscope_machine.Config
module Machine = Fscope_machine.Machine
module W = Fscope_workloads

(* A Treiber stack over an index-based node pool: top holds a node
   index (0 = empty); each thread pushes then pops from disjoint node
   ranges, so every value must be popped exactly once overall. *)
let stack_class =
  let open W.Dsl in
  {
    Ast.cname = "Stack";
    scalars = [ scalar "top" 0 ];
    arrays = [ array "sval" 256; array "snext" 256 ];
    methods =
      [
        meth "push" [ "v"; "node" ]
          [
            sfldelem "self" "sval" (l "node") (l "v");
            let_ "done_" (i 0);
            while_
              (not_ (l "done_"))
              [
                let_ "t" (fld "self" "top");
                sfldelem "self" "snext" (l "node") (l "t");
                fence_class (* publish val/next before the top CAS *);
                let_ "ok" (i 0);
                cas_fld "ok" "self" "top" (l "t") (l "node");
                when_ (l "ok") [ set "done_" (i 1) ];
              ];
          ];
        meth "pop" [] ~returns:true
          [
            let_ "res" (i 0);
            let_ "done_" (i 0);
            while_
              (not_ (l "done_"))
              [
                let_ "t" (fld "self" "top");
                if_ (l "t" = i 0)
                  [ set "done_" (i 1) (* empty *) ]
                  [
                    let_ "n" (fldelem "self" "snext" (l "t"));
                    let_ "v" (fldelem "self" "sval" (l "t"));
                    fence_class (* read the node before racing for it *);
                    let_ "ok" (i 0);
                    cas_fld "ok" "self" "top" (l "t") (l "n");
                    when_ (l "ok") [ set "res" (l "v"); set "done_" (i 1) ];
                  ];
              ];
            return_ (l "res");
          ];
      ];
  }

let threads = 4
let per_thread = 12

let thread_body me =
  let open W.Dsl in
  let base = Stdlib.( + ) (Stdlib.( * ) me per_thread) 1 in
  W.Privwork.warmup ~thread:me ~level:(W.Privwork.cold ~arith:32 ~stores:1)
  @ [
      let_ "k" (i 0);
      while_
        (l "k" < i per_thread)
        ([ call "stk" "push" [ i base + l "k" + i 100; i base + l "k" ] ]
        @ W.Privwork.block ~thread:me
            ~level:(W.Privwork.cold ~arith:32 ~stores:1)
            ~unique:"w" ()
        @ [ set "k" (l "k" + i 1) ]);
      let_ "k2" (i 0);
      let_ "v" (i 0);
      while_
        (l "k2" < i per_thread)
        [
          callv "v" "stk" "pop" [];
          when_
            (l "v" > i 0)
            [ selem (Printf.sprintf "popped%d" me) (l "v" - i 101) (i 1) ];
          set "k2" (l "k2" + i 1);
        ];
    ]

let () =
  let n_values = threads * per_thread in
  let program_ast =
    {
      Ast.classes = [ stack_class ];
      instances = [ { Ast.iname = "stk"; cls = "Stack" } ];
      globals =
        List.init threads (fun t ->
            Ast.G_array (Printf.sprintf "popped%d" t, n_values + 1, None))
        @ W.Privwork.globals ~threads ();
      threads = List.init threads thread_body;
    }
  in
  let program, info = Fscope_slang.Compile.compile program_ast in
  Printf.printf "treiber stack: %d instructions compiled, class cids: %s\n"
    (Fscope_isa.Program.total_instrs program)
    (String.concat ", "
       (List.map
          (fun (c, id) -> Printf.sprintf "%s->%d" c id)
          info.Fscope_slang.Compile.cids));
  let run config =
    let result = Machine.run config program in
    if result.Machine.timed_out then failwith "timed out";
    result
  in
  let t = run (Config.v ~sfence:false ()) in
  let s = run (Config.v ~sfence:true ()) in
  (* Validate: every pushed value popped at most once, and values not
     popped must still be on the stack. *)
  let mem = s.Machine.mem in
  let addr name = Fscope_isa.Program.address_of program name in
  let on_stack = Array.make (n_values + 1) 0 in
  let rec walk node =
    if node <> 0 then begin
      let v = mem.(addr "stk.sval" + node) - 101 in
      if v >= 0 && v <= n_values then on_stack.(v) <- on_stack.(v) + 1;
      walk mem.(addr "stk.snext" + node)
    end
  in
  walk mem.(addr "stk.top");
  let ok = ref true in
  for v = 0 to n_values - 1 do
    let popped =
      List.fold_left
        (fun acc t -> acc + mem.(addr (Printf.sprintf "popped%d" t) + v))
        0 (List.init threads Fun.id)
    in
    if popped + on_stack.(v) <> 1 then ok := false
  done;
  Printf.printf "validation: every value accounted exactly once: %b\n" !ok;
  Printf.printf "traditional: %d cycles | scoped: %d cycles | speedup %.2fx\n"
    t.Machine.cycles s.Machine.cycles
    (float_of_int t.Machine.cycles /. float_of_int s.Machine.cycles)
