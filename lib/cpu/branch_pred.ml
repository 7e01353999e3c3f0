type t = {
  mask : int;
  counters : int array; (* 0..3; >= 2 predicts taken *)
}

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Branch_pred.create: entries must be a positive power of two";
  { mask = entries - 1; counters = Array.make entries 1 (* weakly not-taken *) }

let predict t ~pc = t.counters.(pc land t.mask) >= 2

let snapshot t = Array.copy t.counters
let entries t = Array.length t.counters
let counter t i = t.counters.(i)

let restore t counters =
  if Array.length counters <> Array.length t.counters then
    invalid_arg "Branch_pred.restore: size mismatch";
  Array.blit counters 0 t.counters 0 (Array.length counters)

let update t ~pc ~taken =
  let i = pc land t.mask in
  let c = t.counters.(i) in
  t.counters.(i) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1))
