type entry = {
  addr : int;
  value : int;
  mask : Fscope_core.Fsb.mask;
  done_at : int;
}

(* A small FIFO (capacity 8-ish, so linear operations are the right
   implementation) kept in parallel int arrays, oldest first: entries
   drain out of order, and a drain closes the gaps it leaves.  The
   fence check never walks the entries: [col_count.(c)] counts the
   entries with scope bit [c] set, one counter per bit of a mask. *)
type t = {
  capacity : int;
  mutable count : int;
  addrs : int array;
  values : int array;
  masks : int array;
  dues : int array;
  col_count : int array;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Store_buffer.create: capacity must be positive";
  {
    capacity;
    count = 0;
    addrs = Array.make capacity 0;
    values = Array.make capacity 0;
    masks = Array.make capacity 0;
    dues = Array.make capacity 0;
    col_count = Array.make Sys.int_size 0;
    trace;
    core;
  }

let rec count_mask t mask col by =
  if mask <> 0 then begin
    if mask land 1 <> 0 then t.col_count.(col) <- t.col_count.(col) + by;
    count_mask t (mask lsr 1) (col + 1) by
  end

let count t = t.count
let is_full t = t.count >= t.capacity
let is_empty t = t.count = 0

let push t ~addr ~value ~mask ~done_at =
  if is_full t then invalid_arg "Store_buffer.push: full";
  let j = t.count in
  t.addrs.(j) <- addr;
  t.values.(j) <- value;
  t.masks.(j) <- mask;
  t.dues.(j) <- done_at;
  t.count <- t.count + 1;
  count_mask t mask 0 1;
  if Fscope_obs.Trace.records t.trace then
    Fscope_obs.Trace.sb_insert t.trace ~core:t.core ~addr

let rec due_from t cycle i = i < t.count && (t.dues.(i) <= cycle || due_from t cycle (i + 1))
let any_due t ~cycle = due_from t cycle 0

(* Remove the due entries oldest first, handing each to [apply], and
   close the gaps so the rest keep their order. *)
let rec drain_from t cycle apply x i w =
  if i < t.count then begin
    let addr = t.addrs.(i) and value = t.values.(i) and mask = t.masks.(i) in
    if t.dues.(i) <= cycle then begin
      count_mask t mask 0 (-1);
      if Fscope_obs.Trace.records t.trace then
        Fscope_obs.Trace.sb_drain t.trace ~core:t.core ~addr ~value;
      apply x ~addr ~value ~mask;
      drain_from t cycle apply x (i + 1) w
    end
    else begin
      t.addrs.(w) <- addr;
      t.values.(w) <- value;
      t.masks.(w) <- mask;
      t.dues.(w) <- t.dues.(i);
      drain_from t cycle apply x (i + 1) (w + 1)
    end
  end
  else t.count <- w

let drain_due t ~cycle apply x =
  any_due t ~cycle
  && begin
       drain_from t cycle apply x 0 0;
       true
     end

(* Youngest first. *)
let rec youngest_from t addr i = if i < 0 || t.addrs.(i) = addr then i else youngest_from t addr (i - 1)

let youngest_to t ~addr = youngest_from t addr (t.count - 1)
let value_at t i = t.values.(i)
let due_at t i = t.dues.(i)
let has_addr t ~addr = youngest_to t ~addr >= 0

let rec last_due_from t addr i m =
  if i >= t.count then m
  else last_due_from t addr (i + 1) (if t.addrs.(i) = addr then Int.max m t.dues.(i) else m)

let last_due_to t ~addr = last_due_from t addr 0 0

let rec overlaps_from t mask col =
  mask <> 0
  && ((mask land 1 <> 0 && t.col_count.(col) > 0) || overlaps_from t (mask lsr 1) (col + 1))

let mask_overlaps t mask = overlaps_from t mask 0

let column_count t col = t.col_count.(col)

let iter t f =
  for i = 0 to t.count - 1 do
    f { addr = t.addrs.(i); value = t.values.(i); mask = t.masks.(i); done_at = t.dues.(i) }
  done

(* Checkpoint restore: replace the FIFO wholesale (oldest first),
   emitting nothing. *)
let restore t entries =
  if List.length entries > t.capacity then invalid_arg "Store_buffer.restore: overflow";
  t.count <- 0;
  Array.fill t.col_count 0 (Array.length t.col_count) 0;
  List.iter
    (fun e ->
      let j = t.count in
      t.addrs.(j) <- e.addr;
      t.values.(j) <- e.value;
      t.masks.(j) <- e.mask;
      t.dues.(j) <- e.done_at;
      t.count <- j + 1;
      count_mask t e.mask 0 1)
    entries
