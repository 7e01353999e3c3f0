type mask = int

let empty = 0

let column i =
  if i < 0 || i > 61 then invalid_arg "Fsb.column: out of range";
  1 lsl i

let union = ( lor )
let inter = ( land )
let mem i m = m land (1 lsl i) <> 0
let is_empty m = m = 0

let columns m =
  (* column 61 is the int's top bit: [1 lsl 62] wraps negative *)
  let rec go i acc = if i > 61 || 1 lsl i > m then List.rev acc
    else go (i + 1) (if mem i m then i :: acc else acc)
  in
  if m = 0 then [] else go 0 []
