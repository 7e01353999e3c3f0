(* Struct of arrays, by blocks of [block_sets] sets: way [w] of set
   [s] is offset [(s mod block_sets) * ways + w] of block [s /
   block_sets], whose tags (-1 = invalid), LRU stamps and payloads are
   three arrays; an invalid slot holds the [empty] payload.  A block's
   arrays are allocated by the first [fill] into it (or a [restore]
   that puts a line or a stamp there).  Until then the block shares
   read-only arrays of invalid tags, zero stamps and [empty] payloads,
   so every read answers as an allocated, never-filled block would:
   nothing else writes a slot that is not holding a line.  Sets are
   tiny (4-8 ways), so linear scans are the fastest and simplest
   implementation, and the access path allocates nothing but a block
   on its first fill. *)

let block_bits = 6
let block_sets = 1 lsl block_bits

type 'a t = {
  sets : int;
  ways : int;
  line_shift : int;
  block_slots : int;  (* slots of one block's arrays *)
  block_shift : int;  (* slot index = block lsl block_shift lor offset *)
  tags : int array array;
  stamps : int array array;
  payloads : 'a array array;
  no_tags : int array;  (* the shared arrays of a block not yet filled *)
  no_stamps : int array;
  no_payloads : 'a array;
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
  let block_slots = Int.min sets block_sets * ways in
  let blocks = ((sets - 1) lsr block_bits) + 1 in
  let no_tags = Array.make block_slots (-1)
  and no_stamps = Array.make block_slots 0
  and no_payloads = Array.make block_slots empty in
  {
    sets;
    ways;
    line_shift = log2 line_words;
    block_slots;
    block_shift = log2 ((2 * block_slots) - 1);
    tags = Array.make blocks no_tags;
    stamps = Array.make blocks no_stamps;
    payloads = Array.make blocks no_payloads;
    no_tags;
    no_stamps;
    no_payloads;
    empty;
    clock = 0;
  }

let line_addr t addr = (addr lsr t.line_shift) lsl t.line_shift
let set_of t line = (line lsr t.line_shift) mod t.sets
let block_of t slot = slot lsr t.block_shift
let offset_of t slot = slot land ((1 lsl t.block_shift) - 1)

(* Way [w] of [set] in its block, [set lsr block_bits]. *)
let offset t set w = ((set land (block_sets - 1)) * t.ways) + w

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let rec find_from tags line o stop =
  if o >= stop then -1 else if tags.(o) = line then o else find_from tags line (o + 1) stop

let peek t addr =
  let line = line_addr t addr in
  let set = set_of t line in
  let b = set lsr block_bits and base = offset t set 0 in
  let o = find_from t.tags.(b) line base (base + t.ways) in
  if o < 0 then -1 else (b lsl t.block_shift) lor o

(* Only a slot holding a line reaches [find]'s stamp write, [update]
   and [invalidate], so their block is allocated. *)
let find t addr =
  let s = peek t addr in
  if s >= 0 then t.stamps.(block_of t s).(offset_of t s) <- tick t;
  s

let resident t addr = peek t addr >= 0
let line t slot = t.tags.(block_of t slot).(offset_of t slot)
let payload t slot = t.payloads.(block_of t slot).(offset_of t slot)

let update t addr payload =
  let s = peek t addr in
  if s < 0 then invalid_arg "Cache.update: line not resident";
  t.payloads.(block_of t s).(offset_of t s) <- payload

(* Prefer the first invalid way; otherwise evict the least recently
   used, the earliest way on a tie. *)
let rec victim_from tags stamps o stop v =
  if o >= stop then v
  else
    let v =
      if tags.(v) <> -1 && (tags.(o) = -1 || stamps.(o) < stamps.(v)) then o else v
    in
    victim_from tags stamps (o + 1) stop v

let victim t addr =
  if resident t addr then invalid_arg "Cache.victim: line already resident";
  let set = set_of t (line_addr t addr) in
  let b = set lsr block_bits and base = offset t set 0 in
  (b lsl t.block_shift)
  lor victim_from t.tags.(b) t.stamps.(b) (base + 1) (base + t.ways) base

let allocate t b =
  if t.tags.(b) == t.no_tags then begin
    t.tags.(b) <- Array.make t.block_slots (-1);
    t.stamps.(b) <- Array.make t.block_slots 0;
    t.payloads.(b) <- Array.make t.block_slots t.empty
  end

let fill t slot addr payload =
  let b = block_of t slot and o = offset_of t slot in
  allocate t b;
  t.tags.(b).(o) <- line_addr t addr;
  t.payloads.(b).(o) <- payload;
  t.stamps.(b).(o) <- tick t

let invalidate t addr =
  let s = peek t addr in
  s >= 0
  && begin
       let b = block_of t s and o = offset_of t s in
       t.tags.(b).(o) <- -1;
       t.payloads.(b).(o) <- t.empty;
       true
     end

let iter t f =
  Array.iteri
    (fun b tags ->
      if tags != t.no_tags then
        Array.iteri (fun o tag -> if tag <> -1 then f tag t.payloads.(b).(o)) tags)
    t.tags

(* Positional dump/restore for checkpointing.  Replacement decisions
   depend on the exact (set, way) placement and stamps — [victim]
   prefers the first invalid way in way order, then the strictly
   smallest stamp with earliest-way tie-break — so the dump keeps every
   slot at its position and carries the clock verbatim.  A block not
   yet filled dumps as invalid slots with stamp 0, and only a block
   holding a line or a stamp is allocated by [restore]. *)

let dump t ~payload =
  let slot set w =
    let b = set lsr block_bits and o = offset t set w in
    let tag = t.tags.(b).(o) in
    (tag, t.stamps.(b).(o), if tag = -1 then None else Some (payload t.payloads.(b).(o)))
  in
  (t.clock, Array.init t.sets (fun set -> Array.init t.ways (slot set)))

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
  let blocks = Array.length t.tags in
  Array.fill t.tags 0 blocks t.no_tags;
  Array.fill t.stamps 0 blocks t.no_stamps;
  Array.fill t.payloads 0 blocks t.no_payloads;
  Array.iteri
    (fun set ways ->
      Array.iteri
        (fun w (tag, stamp, p) ->
          if tag <> -1 || stamp <> 0 then begin
            let b = set lsr block_bits and o = offset t set w in
            allocate t b;
            t.tags.(b).(o) <- tag;
            t.stamps.(b).(o) <- stamp;
            t.payloads.(b).(o) <- (match p with None -> t.empty | Some p -> payload p)
          end)
        ways)
    slots
