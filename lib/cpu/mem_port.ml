type kind =
  | Read
  | Write
  | Rmw

type t = {
  size : int;
  issue : core:int -> kind -> addr:int -> now:int -> int;
  level : unit -> Fscope_obs.Event.mem_outcome;
  load : addr:int -> int;
  store : addr:int -> value:int -> unit;
}

let create ~size ~issue ~level ~load ~store = { size; issue; level; load; store }

let make ~size ~issue ~load ~store =
  let last = ref Fscope_obs.Event.L1_hit in
  create ~size
    ~issue:(fun ~core kind ~addr ~now ->
      let completes, level = issue ~core kind ~addr ~now in
      last := level;
      completes)
    ~level:(fun () -> !last)
    ~load ~store

let issue t ~core kind ~addr ~now = t.issue ~core kind ~addr ~now
let last_level t = t.level ()
let load t ~addr = t.load ~addr
let store t ~addr ~value = t.store ~addr ~value
let in_bounds t ~addr = addr >= 0 && addr < t.size
