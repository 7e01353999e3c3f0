(* server-mpmc: an MPMC request-dispatch queue under bursty traffic.

   Producers replay a deterministic arrival trace (Traffic): per
   request they run the trace's open-loop delay, then enqueue onto a
   shared Michael-Scott queue (the MPMC dispatch point); workers
   dequeue, claim the request exactly once, and serve it with
   key-dependent register work (the trace's skewed keys become a
   heterogeneous service-time distribution).  In closed-loop mode a
   producer instead paces itself against the workers' shared retired
   counter, keeping at most [window] of its requests in flight.

   Unlike the Fig. 12 harness benchmarks, the hot fences here are on
   the producer-side publish path (node init before the enqueue CAS)
   and the dispatch path, under sustained cross-core traffic — the
   server-suite shape the paper's workloads never measure. *)

module Ast = Fscope_slang.Ast
module Machine = Fscope_machine.Machine
module Program = Fscope_isa.Program

let claims_name t = Printf.sprintf "claims%d" t
let gaps_name p = Printf.sprintf "reqgaps%d" p
let scratch_name t = Printf.sprintf "mscr%d" t

(* Producer p injects nodes [base, base + count): node k carries value
   k + 1000, so a worker recovers the claim slot as v - 1002 (node
   indices start at 2, mirroring msn).  Building a request dirties the
   producer's private scratch lines right before the enqueue's publish
   fence — the lines a traditional fence drains and a scoped one
   skips. *)
let producer_thread ~me ~base ~count ~window ~closed =
  let open Dsl in
  [
    let_ "k" (i 0);
    while_
      (l "k" < i count)
      ([
         let_ "gap" (elem (gaps_name me) (l "k"));
       ]
      @ delay ~unique:"pace" (l "gap")
      @ (if closed then
           [
             (* Closed loop: wait until fewer than [window] of the
                whole system's requests are outstanding. *)
             while_ (g "injected" - g "retired" >= i window) [];
           ]
         else [])
      @ scratch_work ~unique:"mk" ~arr:(scratch_name me) (i 8)
      @ [
          call "q" "enqueue" [ i base + l "k" + i 1000; i base + l "k" ];
        ]
      @ fetch_add_g ~unique:"inj" "injected" (i 1)
      @ [ set "k" (l "k" + i 1) ]);
    fence (* all enqueue effects visible before the completion count *);
  ]
  @ fetch_add_g ~unique:"done" "done_producers" (i 1)

(* Worker: dequeue, claim, serve.  The drain protocol mirrors msn's
   consumers: only leave when a dequeue that follows the
   done_producers == P observation still finds the queue empty. *)
let worker_thread ~me ~producers ~n_values ~service =
  let open Dsl in
  let serve v =
    [
      let_ "slot" (v - i 1002);
      incr_elem (claims_name me) (l "slot");
      let_ "key" (elem "reqkey" (l "slot"));
    ]
    @ fetch_add_g ~unique:"ret" "retired" (i 1)
    @ scratch_work ~unique:"serve" ~arr:(scratch_name me)
        (((l "key" % i 4) + i 1) * i service)
  in
  Privwork.warm_array ~name:(claims_name me) ~words:(Stdlib.( + ) n_values 2)
  @ [
    let_ "leave" (i 0);
    let_ "v" (i 0);
    while_
      (not_ (l "leave"))
      [
        callv "v" "q" "dequeue" [];
        if_ (l "v" > i 0)
          (serve (l "v"))
          [
            let_ "d" (g "done_producers");
            fence;
            let_ "v2" (i 0);
            callv "v2" "q" "dequeue" [];
            if_ (l "v2" > i 0)
              (serve (l "v2"))
              [ when_ (l "d" = i producers) [ set "leave" (i 1) ] ];
          ];
      ];
  ]

let make ?(threads = 8) ?(per_producer = 16) ?(seed = 1) ?(mean_burst = 4)
    ?(mean_gap = 300) ?(key_skew = 1) ?(mode = Traffic.Open_loop) ?(window = 8)
    ?(service = 24) ~scope () =
  if threads < 2 then invalid_arg "Mpmc.make: need a producer and a worker";
  let producers = max 1 (threads / 4) in
  let trace =
    Traffic.make
      {
        Traffic.default with
        seed;
        clients = producers;
        requests = producers * per_producer;
        mean_burst;
        mean_gap;
        key_skew;
        mode;
      }
  in
  let counts = Array.init producers (Traffic.client_requests trace) in
  let bases =
    Array.init producers (fun p ->
        2 + Array.fold_left ( + ) 0 (Array.sub counts 0 p))
  in
  let n_values = Array.fold_left ( + ) 0 counts in
  let pool = 2 + n_values in
  let closed = mode = Traffic.Closed_loop in
  let fence =
    match scope with
    | `Class -> Dsl.fence_class
    | `Set -> Dsl.fence_set (Msn_class.set_fence_vars ~instances:[ "q" ])
  in
  (* reqkey.(slot) for slot = node - 2: the key of the request the
     node carries — read-only shared data the workers key their
     service time from. *)
  let reqkey = Array.make n_values 0 in
  Array.iteri
    (fun p base ->
      Array.iteri (fun k key -> reqkey.((base - 2) + k) <- key) trace.Traffic.keys.(p))
    bases;
  let program_ast =
    {
      Ast.classes = [ Msn_class.decl ~fence ~pool ];
      instances = [ { Ast.iname = "q"; cls = "Msn" } ];
      globals =
        [
          Ast.G_scalar ("done_producers", 0);
          Ast.G_scalar ("injected", 0);
          Ast.G_scalar ("retired", 0);
          Ast.G_array ("reqkey", n_values, Some reqkey);
        ]
        @ List.init producers (fun p ->
              Ast.G_array (gaps_name p, counts.(p), Some trace.Traffic.gaps.(p)))
        @ List.init threads (fun t -> Ast.G_array (claims_name t, n_values + 2, None))
        @ List.init threads (fun t -> Ast.G_array (scratch_name t, 64, None));
      threads =
        List.init threads (fun t ->
            if t < producers then
              producer_thread ~me:t ~base:bases.(t) ~count:counts.(t) ~window ~closed
            else worker_thread ~me:t ~producers ~n_values ~service);
    }
  in
  let program = Fscope_slang.Compile.compile_program program_ast in
  let validate (result : Machine.result) =
    let mem = result.Machine.mem in
    let problem = ref None in
    let check cond msg = if not cond && !problem = None then problem := Some (msg ()) in
    for slot = 0 to n_values - 1 do
      let total =
        List.fold_left
          (fun acc t -> acc + mem.(Program.address_of program (claims_name t) + slot))
          0
          (List.init threads Fun.id)
      in
      check (total = 1) (fun () ->
          Printf.sprintf "request %d served %d times" slot total)
    done;
    let head = mem.(Program.address_of program "q.qhead") in
    let next = Program.address_of program "q.qnext" in
    check (mem.(next + head) = 0) (fun () -> "queue not empty at exit");
    check
      (mem.(Program.address_of program "injected") = n_values)
      (fun () -> Printf.sprintf "injected %d of %d"
          mem.(Program.address_of program "injected") n_values);
    check
      (mem.(Program.address_of program "retired") = n_values)
      (fun () -> Printf.sprintf "retired %d of %d"
          mem.(Program.address_of program "retired") n_values);
    match !problem with
    | Some msg -> Error msg
    | None -> Ok ()
  in
  {
    Workload.name = "server-mpmc";
    description = "MPMC request-dispatch queue: bursty producers feeding worker cores";
    program;
    validate;
  }

let requests ?(threads = 8) ?(per_producer = 16) () =
  max 1 (threads / 4) * per_producer

(* -- per-request latency from the store-buffer drain stream ----------

   A request's life is bracketed by two plain stores the simulator
   already traces as [Sb_drain] events:

   - inject: the enqueue's [qval] initialisation of the node carrying
     the request.  Node [slot + 2] holds value [slot + 1002] (node
     indices start at 2), so the drain at [q.qval + slot + 2] with
     exactly that value is the moment the request enters the queue's
     memory.
   - retire: the claiming worker's increment of its [claims] slot.
     The warm-up pass writes zeros over the same array, so the first
     drain with a non-zero value at [claimsT + slot] (any worker T) is
     the claim itself.

   Both marker families live in disjoint address regions of length at
   least [requests], so the (address, value) tests below cannot
   confuse them with each other or with any other store. *)

let latency_markers ~requests ~threads program =
  let qval = Program.address_of program "q.qval" in
  let claims =
    Array.init threads (fun t -> Program.address_of program (claims_name t))
  in
  let inject_slot addr value =
    let s = addr - qval - 2 in
    if s >= 0 && s < requests && value = s + 1002 then Some s else None
  in
  let retire_slot addr value =
    if value = 0 then None
    else
      Array.fold_left
        (fun acc base ->
          match acc with
          | Some _ -> acc
          | None ->
            let s = addr - base in
            if s >= 0 && s < requests then Some s else None)
        None claims
  in
  (inject_slot, retire_slot)

let keep_latency ~requests ~threads program =
  let inject_slot, retire_slot = latency_markers ~requests ~threads program in
  fun ~addr ~value -> inject_slot addr value <> None || retire_slot addr value <> None

(* A marker pair counts only when both endpoints fall inside ONE of
   the inclusive [windows].  An exact run passes the whole run as one
   window; a sampled run passes its measured detailed windows, since a
   pair spanning a functional gap would fold unsimulated fast-forward
   cycles into the latency. *)
let latency_of_events ~requests ~threads ~windows program events =
  let inject_slot, retire_slot = latency_markers ~requests ~threads program in
  let inject = Array.make requests max_int in
  let retire = Array.make requests max_int in
  events (fun (ev : Fscope_obs.Event.timed) ->
      match ev.Fscope_obs.Event.event with
      | Fscope_obs.Event.Sb_drain { addr; value } ->
        (match inject_slot addr value with
        | Some s -> if ev.cycle < inject.(s) then inject.(s) <- ev.cycle
        | None -> ());
        (match retire_slot addr value with
        | Some s -> if ev.cycle < retire.(s) then retire.(s) <- ev.cycle
        | None -> ())
      | _ -> ());
  let in_one_window lo hi =
    List.exists (fun (ws, we) -> ws <= lo && hi <= we) windows
  in
  let lats = ref [] in
  for s = requests - 1 downto 0 do
    if
      inject.(s) < max_int
      && retire.(s) >= inject.(s)
      && retire.(s) < max_int
      && in_one_window inject.(s) retire.(s)
    then lats := (retire.(s) - inject.(s)) :: !lats
  done;
  List.sort compare !lats
