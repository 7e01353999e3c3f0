type entry = {
  addr : int;
  value : int;
  mask : Fscope_core.Fsb.mask;
  done_at : int;
}

(* A small FIFO; capacity is 8-ish so linear operations are the right
   implementation, except for the fence check: [col_count.(c)] counts
   the entries with scope bit [c] set, one counter per bit of a mask,
   so [mask_overlaps] never walks the entries. *)
type t = {
  capacity : int;
  mutable entries : entry list; (* oldest first *)
  col_count : int array;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Store_buffer.create: capacity must be positive";
  { capacity; entries = []; col_count = Array.make Sys.int_size 0; trace; core }

let rec count_mask t mask col by =
  if mask <> 0 then begin
    if mask land 1 <> 0 then t.col_count.(col) <- t.col_count.(col) + by;
    count_mask t (mask lsr 1) (col + 1) by
  end

let capacity t = t.capacity
let count t = List.length t.entries
let is_full t = count t >= t.capacity
let is_empty t = t.entries = []

let push t entry =
  if is_full t then invalid_arg "Store_buffer.push: full";
  t.entries <- t.entries @ [ entry ];
  count_mask t entry.mask 0 1;
  if Fscope_obs.Trace.on t.trace then
    Fscope_obs.Trace.emit t.trace ~core:t.core
      (Fscope_obs.Event.Sb_insert { addr = entry.addr })

let rec any_due cycle = function
  | [] -> false
  | e :: rest -> e.done_at <= cycle || any_due cycle rest

(* Called on every phase-1 step of every awake core, and usually
   nothing is due: that case must not allocate. *)
let take_completed t ~cycle =
  if not (any_due cycle t.entries) then []
  else begin
    let done_, waiting = List.partition (fun e -> e.done_at <= cycle) t.entries in
    t.entries <- waiting;
    List.iter (fun e -> count_mask t e.mask 0 (-1)) done_;
    if Fscope_obs.Trace.on t.trace then
      List.iter
        (fun e ->
          Fscope_obs.Trace.emit t.trace ~core:t.core
            (Fscope_obs.Event.Sb_drain { addr = e.addr; value = e.value }))
        done_;
    done_
  end

let forward t ~addr =
  List.fold_left
    (fun acc e -> if e.addr = addr then Some e.value else acc)
    None t.entries

let has_addr t ~addr = List.exists (fun e -> e.addr = addr) t.entries

let rec overlaps_from t mask col =
  mask <> 0
  && ((mask land 1 <> 0 && t.col_count.(col) > 0) || overlaps_from t (mask lsr 1) (col + 1))

let mask_overlaps t mask = overlaps_from t mask 0

let column_count t col = t.col_count.(col)

let iter t f = List.iter f t.entries

(* Checkpoint restore: replace the FIFO wholesale (oldest first),
   emitting nothing. *)
let restore t entries =
  if List.length entries > t.capacity then invalid_arg "Store_buffer.restore: overflow";
  t.entries <- entries;
  Array.fill t.col_count 0 (Array.length t.col_count) 0;
  List.iter (fun e -> count_mask t e.mask 0 1) entries
