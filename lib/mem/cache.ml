(* Struct of arrays: slot [set * ways + way] holds a line's tag (-1 =
   invalid), its LRU stamp and its payload; an invalid slot holds the
   [empty] payload.  Sets are tiny (4-8 ways), so linear scans are the
   fastest and simplest implementation, and nothing on the access path
   allocates. *)

type 'a t = {
  sets : int;
  ways : int;
  line_words : int;
  line_shift : int;
  tags : int array;
  stamps : int array;
  payloads : 'a array;
  empty : 'a;
  mutable clock : int;
}

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let log2 v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let create ~sets ~ways ~line_words ~empty =
  if sets <= 0 || ways <= 0 then invalid_arg "Cache.create: sets/ways must be positive";
  if not (is_power_of_two line_words) then
    invalid_arg "Cache.create: line_words must be a power of two";
  {
    sets;
    ways;
    line_words;
    line_shift = log2 line_words;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    payloads = Array.make (sets * ways) empty;
    empty;
    clock = 0;
  }

let line_words t = t.line_words
let line_addr t addr = (addr lsr t.line_shift) lsl t.line_shift
let base_of t line = (line lsr t.line_shift) mod t.sets * t.ways

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let rec find_from t line s stop =
  if s >= stop then -1 else if t.tags.(s) = line then s else find_from t line (s + 1) stop

let peek t addr =
  let line = line_addr t addr in
  let base = base_of t line in
  find_from t line base (base + t.ways)

let find t addr =
  let s = peek t addr in
  if s >= 0 then t.stamps.(s) <- tick t;
  s

let resident t addr = peek t addr >= 0
let line t slot = t.tags.(slot)
let payload t slot = t.payloads.(slot)

let update t addr payload =
  let s = peek t addr in
  if s < 0 then invalid_arg "Cache.update: line not resident";
  t.payloads.(s) <- payload

(* Prefer the first invalid way; otherwise evict the least recently
   used, the earliest way on a tie. *)
let rec victim_from t s stop v =
  if s >= stop then v
  else
    let v =
      if t.tags.(v) <> -1 && (t.tags.(s) = -1 || t.stamps.(s) < t.stamps.(v)) then s else v
    in
    victim_from t (s + 1) stop v

let victim t addr =
  if resident t addr then invalid_arg "Cache.victim: line already resident";
  let base = base_of t (line_addr t addr) in
  victim_from t (base + 1) (base + t.ways) base

let fill t slot addr payload =
  t.tags.(slot) <- line_addr t addr;
  t.payloads.(slot) <- payload;
  t.stamps.(slot) <- tick t

let invalidate t addr =
  let s = peek t addr in
  s >= 0
  && begin
       t.tags.(s) <- -1;
       t.payloads.(s) <- t.empty;
       true
     end

let iter t f =
  Array.iteri (fun s tag -> if tag <> -1 then f tag t.payloads.(s)) t.tags

(* Positional dump/restore for checkpointing.  Replacement decisions
   depend on the exact (set, way) placement and stamps — [victim]
   prefers the first invalid way in way order, then the strictly
   smallest stamp with earliest-way tie-break — so the dump keeps every
   slot at its position and carries the clock verbatim. *)

let dump t ~payload =
  let slot s =
    (t.tags.(s), t.stamps.(s), if t.tags.(s) = -1 then None else Some (payload t.payloads.(s)))
  in
  (t.clock, Array.init t.sets (fun set -> Array.init t.ways (fun w -> slot ((set * t.ways) + w))))

let restore t ~payload (clock, slots) =
  if
    Array.length slots <> t.sets
    || Array.exists (fun set -> Array.length set <> t.ways) slots
  then invalid_arg "Cache.restore: geometry mismatch";
  (* a line is resident exactly when it has a payload *)
  Array.iter
    (Array.iter (fun (tag, _, p) ->
         if tag < -1 || (tag = -1) <> Option.is_none p then
           invalid_arg "Cache.restore: malformed slot"))
    slots;
  t.clock <- clock;
  Array.iteri
    (fun set ways ->
      Array.iteri
        (fun w (tag, stamp, p) ->
          let s = (set * t.ways) + w in
          t.tags.(s) <- tag;
          t.stamps.(s) <- stamp;
          t.payloads.(s) <- (match p with None -> t.empty | Some p -> payload p))
        ways)
    slots
