module Cache = Fscope_mem.Cache

(* The payload in a looked-up slot, [None] for a miss. *)
let payload_of c slot = if slot < 0 then None else Some (Cache.payload c slot)

(* Fill the victim slot with [addr]'s line, returning the evicted
   (line, payload), if any. *)
let insert c addr p =
  let v = Cache.victim c addr in
  let evicted = if Cache.line c v < 0 then None else Some (Cache.line c v, Cache.payload c v) in
  Cache.fill c v addr p;
  evicted

let test_line_addr () =
  let c = Cache.create ~sets:4 ~ways:2 ~line_words:8 ~empty:0 in
  Alcotest.(check int) "line of 13" 8 (Cache.line_addr c 13);
  Alcotest.(check int) "line of 8" 8 (Cache.line_addr c 8);
  Alcotest.(check int) "line of 7" 0 (Cache.line_addr c 7)

let test_insert_find () =
  let c = Cache.create ~sets:4 ~ways:2 ~line_words:8 ~empty:0 in
  Alcotest.(check (option int)) "miss" None (payload_of c (Cache.find c 13));
  ignore (insert c 13 7);
  Alcotest.(check (option int)) "hit same line" (Some 7) (payload_of c (Cache.find c 8));
  Alcotest.(check bool) "resident" true (Cache.resident c 15);
  Alcotest.(check bool) "other line absent" false (Cache.resident c 16)

let test_lru_eviction () =
  let c = Cache.create ~sets:2 ~ways:2 ~line_words:8 ~empty:0 in
  (* Lines 0, 32, 64 all map to set 0 (line/8 mod 2). *)
  ignore (insert c 0 0);
  ignore (insert c 32 1);
  ignore (Cache.find c 0);
  (* line 32 is now LRU *)
  (match insert c 64 2 with
  | Some (victim, payload) ->
    Alcotest.(check int) "victim is line 32" 32 victim;
    Alcotest.(check int) "payload" 1 payload
  | None -> Alcotest.fail "expected eviction");
  Alcotest.(check bool) "line 0 survives" true (Cache.resident c 0)

let test_invalidate () =
  let c = Cache.create ~sets:4 ~ways:2 ~line_words:8 ~empty:0 in
  ignore (insert c 8 1);
  Alcotest.(check bool) "invalidate finds the line" true (Cache.invalidate c 8);
  Alcotest.(check (option int)) "gone" None (payload_of c (Cache.find c 8));
  Alcotest.(check bool) "double invalidate" false (Cache.invalidate c 8)

let test_update () =
  let c = Cache.create ~sets:4 ~ways:2 ~line_words:8 ~empty:0 in
  ignore (insert c 8 1);
  Cache.update c 10 9;
  Alcotest.(check (option int)) "updated" (Some 9) (payload_of c (Cache.peek c 8));
  Alcotest.check_raises "update absent" (Invalid_argument "Cache.update: line not resident")
    (fun () -> Cache.update c 100 0)

let test_insert_duplicate () =
  let c = Cache.create ~sets:4 ~ways:2 ~line_words:8 ~empty:0 in
  ignore (insert c 8 1);
  Alcotest.check_raises "dup insert" (Invalid_argument "Cache.victim: line already resident")
    (fun () -> ignore (insert c 9 2))

let test_iter () =
  let c = Cache.create ~sets:4 ~ways:2 ~line_words:8 ~empty:0 in
  ignore (insert c 0 10);
  ignore (insert c 8 11);
  let seen = ref [] in
  Cache.iter c (fun line payload -> seen := (line, payload) :: !seen);
  Alcotest.(check int) "two lines" 2 (List.length !seen)

let test_peek_no_lru_effect () =
  let c = Cache.create ~sets:2 ~ways:2 ~line_words:8 ~empty:0 in
  ignore (insert c 0 0);
  ignore (insert c 32 1);
  ignore (Cache.peek c 0);
  (* peek must NOT refresh line 0, so line 0 stays LRU and is evicted *)
  (match insert c 64 2 with
  | Some (victim, _) -> Alcotest.(check int) "victim is line 0" 0 victim
  | None -> Alcotest.fail "expected eviction")

(* ------------------------------------------------------------------ *)
(* Sparse storage against an eager model                               *)

(* The cache as one flat array per field, allocated in full up front:
   slot [set * ways + way], tag -1 for an invalid slot.  Every answer
   of [Cache], whose blocks are allocated by their first fill, must be
   this model's. *)
module Model = struct
  type t = {
    sets : int;
    ways : int;
    line_words : int;
    tags : int array;
    stamps : int array;
    payloads : int array;
    mutable clock : int;
  }

  let empty = -1

  let create ~sets ~ways ~line_words =
    {
      sets;
      ways;
      line_words;
      tags = Array.make (sets * ways) (-1);
      stamps = Array.make (sets * ways) 0;
      payloads = Array.make (sets * ways) empty;
      clock = 0;
    }

  let line_addr m a = a / m.line_words * m.line_words
  let base m a = a / m.line_words mod m.sets * m.ways

  let peek m a =
    let line = line_addr m a and b = base m a in
    let rec go s = if s = b + m.ways then -1 else if m.tags.(s) = line then s else go (s + 1) in
    go b

  let tick m =
    m.clock <- m.clock + 1;
    m.clock

  let find m a =
    let s = peek m a in
    if s >= 0 then m.stamps.(s) <- tick m;
    s

  let victim m a =
    let b = base m a in
    let v = ref b in
    for s = b + 1 to b + m.ways - 1 do
      if m.tags.(!v) <> -1 && (m.tags.(s) = -1 || m.stamps.(s) < m.stamps.(!v)) then v := s
    done;
    !v

  let fill m s a p =
    m.tags.(s) <- line_addr m a;
    m.payloads.(s) <- p;
    m.stamps.(s) <- tick m

  let invalidate m a =
    let s = peek m a in
    s >= 0
    && begin
         m.tags.(s) <- -1;
         m.payloads.(s) <- empty;
         true
       end

  let lines m =
    List.filter_map
      (fun s -> if m.tags.(s) = -1 then None else Some (m.tags.(s), m.payloads.(s)))
      (List.init (m.sets * m.ways) Fun.id)

  let dump m =
    let slot s =
      (m.tags.(s), m.stamps.(s), if m.tags.(s) = -1 then None else Some m.payloads.(s))
    in
    (m.clock, Array.init m.sets (fun set -> Array.init m.ways (fun w -> slot ((set * m.ways) + w))))
end

type op =
  | Find of int
  | Peek of int
  | Insert of int * int  (* victim, then fill with the payload *)
  | Invalidate of int
  | Update of int * int

let print_op = function
  | Find a -> Printf.sprintf "find %d" a
  | Peek a -> Printf.sprintf "peek %d" a
  | Insert (a, p) -> Printf.sprintf "insert %d %d" a p
  | Invalidate a -> Printf.sprintf "invalidate %d" a
  | Update (a, p) -> Printf.sprintf "update %d %d" a p

(* ((sets, ways, line_words), ops before and after a dump/restore).
   Addresses fall into sets on both sides of the 64-set block
   boundaries, [ways + 2] lines per set, so sets overflow and evict
   while whole blocks stay untouched. *)
let gen_ops =
  let open QCheck2.Gen in
  let* sets = oneofl [ 1; 5; 63; 64; 65; 200 ] in
  let* ways = int_range 1 4 in
  let* line_words = oneofl [ 1; 4 ] in
  let addr =
    let+ set = oneofl [ 0; 1; 62; 63; 64; 65; 127; 128; 191; 199 ]
    and+ k = int_bound (ways + 1)
    and+ offset = int_bound (line_words - 1) in
    ((((set mod sets) + (sets * k)) * line_words) + offset)
  in
  let payload = int_bound 100 in
  let op =
    oneof
      [
        map (fun a -> Find a) addr;
        map (fun a -> Peek a) addr;
        map2 (fun a p -> Insert (a, p)) addr payload;
        map2 (fun a p -> Insert (a, p)) addr payload;
        map (fun a -> Invalidate a) addr;
        map2 (fun a p -> Update (a, p)) addr payload;
      ]
  in
  let+ before = list_size (int_range 0 120) op and+ after = list_size (int_range 0 60) op in
  ((sets, ways, line_words), (before, after))

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Apply [op] to both; whether every answer agrees. *)
let step c m op =
  let same_slot s ms =
    (s >= 0) = (ms >= 0)
    && (s < 0 || (Cache.line c s = m.Model.tags.(ms) && Cache.payload c s = m.payloads.(ms)))
  in
  match op with
  | Find a -> same_slot (Cache.find c a) (Model.find m a)
  | Peek a -> same_slot (Cache.peek c a) (Model.peek m a)
  | Insert (a, p) ->
    if Model.peek m a >= 0 then raises (fun () -> Cache.victim c a)
    else begin
      let v = Cache.victim c a and mv = Model.victim m a in
      let same = Cache.line c v = m.tags.(mv) && Cache.payload c v = m.payloads.(mv) in
      Cache.fill c v a p;
      Model.fill m mv a p;
      same
    end
  | Invalidate a -> Cache.invalidate c a = Model.invalidate m a
  | Update (a, p) ->
    let ms = Model.peek m a in
    if ms < 0 then raises (fun () -> Cache.update c a p)
    else begin
      Cache.update c a p;
      m.payloads.(ms) <- p;
      true
    end

let lines c =
  let acc = ref [] in
  Cache.iter c (fun line p -> acc := (line, p) :: !acc);
  List.rev !acc

(* The victim of a line no op names, in every set: what the slots of
   blocks never filled read as. *)
let same_victims c m =
  List.for_all
    (fun set ->
      let a = (set + (m.Model.sets * 1000)) * m.line_words in
      let v = Cache.victim c a and mv = Model.victim m a in
      Cache.line c v = m.tags.(mv) && Cache.payload c v = m.payloads.(mv))
    (List.init m.sets Fun.id)

let prop_sparse_matches_model =
  QCheck2.Test.make ~count:300 ~name:"sparse cache storage answers as an eager model"
    ~print:(fun ((sets, ways, lw), (before, after)) ->
      Printf.sprintf "sets %d ways %d line_words %d\nbefore: %s\nafter restore: %s" sets ways
        lw
        (String.concat "; " (List.map print_op before))
        (String.concat "; " (List.map print_op after)))
    gen_ops
    (fun ((sets, ways, line_words), (before, after)) ->
      let create () = Cache.create ~sets ~ways ~line_words ~empty:Model.empty in
      let c = create () and m = Model.create ~sets ~ways ~line_words in
      let agree c = List.for_all (step c m) in
      let ok_before = agree c before in
      let dump = Cache.dump c ~payload:Fun.id in
      (* a partly allocated cache round-trips through a fresh one ... *)
      let c' = create () in
      Cache.restore c' ~payload:Fun.id dump;
      let round_trip = Cache.dump c' ~payload:Fun.id = dump in
      (* ... and restoring an empty dump over it empties it *)
      let blank = Cache.dump (create ()) ~payload:Fun.id in
      Cache.restore c ~payload:Fun.id blank;
      ok_before && dump = Model.dump m && round_trip
      && Cache.dump c ~payload:Fun.id = blank
      && lines c = []
      && agree c' after
      && Cache.dump c' ~payload:Fun.id = Model.dump m
      && lines c' = Model.lines m
      && same_victims c' m)

let tests =
  [
    Alcotest.test_case "line addressing" `Quick test_line_addr;
    Alcotest.test_case "insert/find" `Quick test_insert_find;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "update" `Quick test_update;
    Alcotest.test_case "duplicate insert rejected" `Quick test_insert_duplicate;
    Alcotest.test_case "iter" `Quick test_iter;
    Alcotest.test_case "peek preserves LRU" `Quick test_peek_no_lru_effect;
    QCheck_alcotest.to_alcotest prop_sparse_matches_model;
  ]
