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
  ]
