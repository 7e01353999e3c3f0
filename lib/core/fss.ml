type t = {
  slots : int array;
  mutable depth : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Fss.create: capacity must be positive";
  { slots = Array.make capacity 0; depth = 0 }

let capacity t = Array.length t.slots
let is_full t = t.depth = Array.length t.slots
let is_empty t = t.depth = 0

let push t col =
  if is_full t then invalid_arg "Fss.push: stack full";
  t.slots.(t.depth) <- col;
  t.depth <- t.depth + 1

let pop t = if t.depth > 0 then t.depth <- t.depth - 1
let top t = if t.depth = 0 then -1 else t.slots.(t.depth - 1)

let mask t =
  let m = ref Fsb.empty in
  for i = 0 to t.depth - 1 do
    m := Fsb.union !m (Fsb.column t.slots.(i))
  done;
  !m

let rec contains_from t col i =
  i < t.depth && (t.slots.(i) = col || contains_from t col (i + 1))
let contains t col = contains_from t col 0

let copy_from dst src =
  if capacity dst <> capacity src then invalid_arg "Fss.copy_from: capacity mismatch";
  Array.blit src.slots 0 dst.slots 0 src.depth;
  dst.depth <- src.depth

let to_list t = Array.to_list (Array.sub t.slots 0 t.depth)

let restore t cols =
  if List.length cols > capacity t then invalid_arg "Fss.restore: overflow";
  t.depth <- 0;
  List.iter (push t) cols
