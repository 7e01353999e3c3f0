type config = {
  fsb_entries : int;
  fss_entries : int;
  mt_entries : int;
  enabled : bool;
}

let default_config = { fsb_entries = 4; fss_entries = 4; mt_entries = 4; enabled = true }

(* Live and confirmed (shadow) copies of the scope state: the FSS plus
   the excess-nesting counter of the overflow mechanism. *)
type state = {
  stack : Fss.t;
  mutable counter : int;
}

(* The decode-order event FIFO, oldest first: a ring of parallel int
   arrays (an event kind and its argument — a branch id or an FSB
   column), grown by doubling when full, so buffering an event
   allocates nothing once the ring has reached the window's depth.
   Scope micro-ops are [Push] of a column, counter-mode [Pushn] and
   [Pop]. *)
let ev_branch = 0 (* an unresolved branch; arg = its id *)
let ev_resolved = 1 (* a branch that resolved correctly *)
let ev_push = 2 (* arg = the column *)
let ev_pushn = 3
let ev_pop = 4

type fifo = {
  mutable kind : int array;
  mutable arg : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  config : config;
  live : state;
  confirmed : state;
  mt : Mapping_table.t;
  outstanding : int array;
  events : fifo;
  trace : Fscope_obs.Trace.t;
  core : int;
}

let validate config =
  if config.fsb_entries < 1 || config.fsb_entries > 62 then
    invalid_arg "Scope_unit: fsb_entries must be in 1..62";
  if config.fss_entries < 1 then invalid_arg "Scope_unit: fss_entries must be positive";
  if config.mt_entries < 1 then invalid_arg "Scope_unit: mt_entries must be positive"

let create ?(trace = Fscope_obs.Trace.null) ?(core = 0) config =
  validate config;
  {
    config;
    live = { stack = Fss.create ~capacity:config.fss_entries; counter = 0 };
    confirmed = { stack = Fss.create ~capacity:config.fss_entries; counter = 0 };
    mt =
      Mapping_table.create ~entries:config.mt_entries
        ~class_columns:(config.fsb_entries - 1);
    outstanding = Array.make config.fsb_entries 0;
    events = { kind = Array.make 16 0; arg = Array.make 16 0; head = 0; len = 0 };
    trace;
    core;
  }

let config t = t.config
let enabled t = t.config.enabled
let set_column t = t.config.fsb_entries - 1

let apply st kind arg =
  if kind = ev_push then
    if st.counter > 0 || Fss.is_full st.stack then st.counter <- st.counter + 1
    else Fss.push st.stack arg
  else if kind = ev_pushn then st.counter <- st.counter + 1
  else if st.counter > 0 then st.counter <- st.counter - 1
  else Fss.pop st.stack

let is_op kind = kind >= ev_push

(* Index of the [i]-th buffered event, oldest first. *)
let ix f i = (f.head + i) land (Array.length f.kind - 1)

let grow f =
  let n = Array.length f.kind in
  let kind = Array.make (2 * n) 0 and arg = Array.make (2 * n) 0 in
  for i = 0 to f.len - 1 do
    kind.(i) <- f.kind.(ix f i);
    arg.(i) <- f.arg.(ix f i)
  done;
  f.kind <- kind;
  f.arg <- arg;
  f.head <- 0

let enqueue f kind arg =
  if f.len = Array.length f.kind then grow f;
  let i = ix f f.len in
  f.kind.(i) <- kind;
  f.arg.(i) <- arg;
  f.len <- f.len + 1

(* Apply every event that is no longer speculative to the confirmed
   state: stop at the first unresolved branch. *)
let rec drain t =
  let f = t.events in
  if f.len > 0 then begin
    let k = f.kind.(f.head) in
    if k <> ev_branch then begin
      if is_op k then apply t.confirmed k f.arg.(f.head);
      f.head <- ix f 1;
      f.len <- f.len - 1;
      drain t
    end
  end

let record t kind arg =
  apply t.live kind arg;
  enqueue t.events kind arg;
  drain t

let rec pushes_from f col i =
  i < f.len && ((f.kind.(ix f i) = ev_push && f.arg.(ix f i) = col) || pushes_from f col (i + 1))

let column_busy t col =
  t.outstanding.(col) > 0
  || Fss.contains t.live.stack col
  || Fss.contains t.confirmed.stack col
  || pushes_from t.events col 0

let on_branch t ~id = if t.config.enabled then enqueue t.events ev_branch id

let on_branch_correct t ~id =
  if t.config.enabled then begin
    let f = t.events in
    for i = 0 to f.len - 1 do
      let j = ix f i in
      if f.kind.(j) = ev_branch && f.arg.(j) = id then f.kind.(j) <- ev_resolved
    done;
    drain t
  end

let is_branch kind = kind = ev_branch || kind = ev_resolved

let rec find_branch f id i =
  if i >= f.len then -1
  else if is_branch f.kind.(ix f i) && f.arg.(ix f i) = id then i
  else find_branch f id (i + 1)

let on_branch_mispredict t ~id =
  if t.config.enabled then begin
    (* The correct-path state is: confirmed state plus every buffered
       micro-op older than the mispredicted branch.  When the branch
       is not buffered at all (it may never have been recorded: only
       possible if it was dispatched before any scope activity and
       drained), every older event has, by definition, drained into
       the confirmed state, and the FIFO empties. *)
    let f = t.events in
    let keep = Int.max 0 (find_branch f id 0) in
    Fss.copy_from t.live.stack t.confirmed.stack;
    t.live.counter <- t.confirmed.counter;
    for i = 0 to keep - 1 do
      let j = ix f i in
      if is_op f.kind.(j) then apply t.live f.kind.(j) f.arg.(j)
    done;
    f.len <- keep
  end

let on_fs_start t ~cid =
  if t.config.enabled then begin
    let col =
      if t.live.counter > 0 then -1
      else Mapping_table.lookup_or_allocate t.mt ~cid ~column_busy t
    in
    if Fscope_obs.Trace.records t.trace then
      Fscope_obs.Trace.scope_push t.trace ~core:t.core ~column:col;
    if col >= 0 then record t ev_push col else record t ev_pushn 0
  end

let on_fs_end t ~cid:_ =
  if t.config.enabled then begin
    if Fscope_obs.Trace.records t.trace then
      Fscope_obs.Trace.scope_pop t.trace ~core:t.core;
    record t ev_pop 0
  end

(* While the overflow counter is non-zero the FSS under-represents the
   active scopes, so ops decoded now would carry too few bits: a fence
   in a scope re-entered after recovery (whose MT mapping survived)
   would check its column and miss them.  The paper's counter sketch
   alone is unsound here; we repair it by flagging such ops with every
   class column — conservative, hence still consistent with the
   S-Fence semantics (fences may only get stricter). *)
let all_class_columns t =
  let m = ref Fsb.empty in
  for col = 0 to t.config.fsb_entries - 2 do
    m := Fsb.union !m (Fsb.column col)
  done;
  !m

let decode_mask t ~flagged =
  if not t.config.enabled then Fsb.empty
  else
    let class_bits =
      if t.live.counter > 0 then all_class_columns t else Fss.mask t.live.stack
    in
    if flagged then Fsb.union class_bits (Fsb.column (set_column t)) else class_bits

let rec bits_set t mask col =
  if mask <> 0 then begin
    if mask land 1 <> 0 then t.outstanding.(col) <- t.outstanding.(col) + 1;
    bits_set t (mask lsr 1) (col + 1)
  end

let rec bits_cleared t mask col =
  if mask <> 0 then begin
    if mask land 1 <> 0 then begin
      assert (t.outstanding.(col) > 0);
      t.outstanding.(col) <- t.outstanding.(col) - 1
    end;
    bits_cleared t (mask lsr 1) (col + 1)
  end

let on_bits_set t mask = bits_set t mask 0
let on_bits_cleared t mask = bits_cleared t mask 0

let outstanding t col = t.outstanding.(col)

let wait_global = -1

let fence_scope t kind =
  if not t.config.enabled then wait_global
  else
    match Fscope_isa.Fence_kind.scope_of kind with
    | Fscope_isa.Fence_kind.Global -> wait_global
    | Fscope_isa.Fence_kind.Class_scope ->
      if t.live.counter > 0 then wait_global
      else if Fss.is_empty t.live.stack then
        wait_global (* class fence outside any scope: be conservative *)
      else Fsb.column (Fss.top t.live.stack)
    | Fscope_isa.Fence_kind.Set_scope ->
      if t.live.counter > 0 then wait_global else Fsb.column (set_column t)

let in_overflow t = t.live.counter > 0
let live_stack t = Fss.to_list t.live.stack
let confirmed_stack t = Fss.to_list t.confirmed.stack

(* Relativized fingerprint of the decode-order event FIFO, for the
   spin-stability probe: branch ids (ROB seqs) are expressed relative
   to [base] so two snapshots of the same in-flight shape compare
   equal; a buffered scope micro-op has no fingerprint (the probe
   treats it as unstable). *)
let fingerprint_length t = t.events.len

let fingerprint t ~base i =
  let f = t.events in
  let k = f.kind.(ix f i) in
  if is_op k then min_int else (2 * (base - f.arg.(ix f i))) + if k = ev_resolved then 1 else 0

let current_cid t =
  if (not t.config.enabled) || t.live.counter > 0 || Fss.is_empty t.live.stack then -1
  else Mapping_table.cid_of_column t.mt ~column:(Fss.top t.live.stack)

(* ------------------------------------------------------------------ *)
(* Checkpointing and sampled-mode reseeding. *)

module Json = Fscope_util.Json

let event_to_json kind arg =
  if is_branch kind then
    Json.Arr [ Json.Str "branch"; Json.Int arg; Json.Bool (kind = ev_resolved) ]
  else if kind = ev_push then Json.Arr [ Json.Str "push"; Json.Int arg ]
  else if kind = ev_pushn then Json.Arr [ Json.Str "pushn" ]
  else Json.Arr [ Json.Str "pop" ]

let event_restore f j =
  match Json.list_exn j with
  | [ Json.Str "branch"; id; resolved ] ->
    enqueue f (if Json.bool_exn resolved then ev_resolved else ev_branch) (Json.int_exn id)
  | [ Json.Str "push"; col ] -> enqueue f ev_push (Json.int_exn col)
  | [ Json.Str "pushn" ] -> enqueue f ev_pushn 0
  | [ Json.Str "pop" ] -> enqueue f ev_pop 0
  | _ -> failwith "checkpoint: malformed scope event"

let state_to_json (st : state) =
  Json.Obj
    [
      ("stack", Json.of_int_list (Fss.to_list st.stack));
      ("counter", Json.Int st.counter);
    ]

let state_restore (st : state) j =
  Fss.restore st.stack (Json.int_list_exn (Json.get "stack" j));
  st.counter <- Json.int_exn (Json.get "counter" j)

let to_json t =
  Json.Obj
    [
      ("live", state_to_json t.live);
      ("confirmed", state_to_json t.confirmed);
      ( "mt",
        Json.Arr
          (List.map
             (fun (cid, col) -> Json.Arr [ Json.Int cid; Json.Int col ])
             (Mapping_table.mappings t.mt)) );
      ("outstanding", Json.of_int_array t.outstanding);
      ( "events",
        Json.Arr
          (List.init t.events.len (fun i ->
               event_to_json t.events.kind.(ix t.events i) t.events.arg.(ix t.events i))) );
    ]

let restore t j =
  state_restore t.live (Json.get "live" j);
  state_restore t.confirmed (Json.get "confirmed" j);
  Mapping_table.set_mappings t.mt
    (List.map
       (fun p ->
         match Json.list_exn p with
         | [ cid; col ] -> (Json.int_exn cid, Json.int_exn col)
         | _ -> failwith "checkpoint: malformed MT pair")
       (Json.list_exn (Json.get "mt" j)));
  let out = Json.int_array_exn (Json.get "outstanding" j) in
  if Array.length out <> Array.length t.outstanding then
    failwith "checkpoint: FSB column-count mismatch";
  Array.blit out 0 t.outstanding 0 (Array.length out);
  t.events.len <- 0;
  List.iter (event_restore t.events) (Json.list_exn (Json.get "events" j))

(* Forget everything — stacks, counters, the MT, outstanding bits and
   buffered events.  The sampled engine resets the unit when it
   re-enters a detailed window from functional execution and then
   replays the architectural scope nesting with [on_fs_start]. *)
let reset t =
  Fss.restore t.live.stack [];
  Fss.restore t.confirmed.stack [];
  t.live.counter <- 0;
  t.confirmed.counter <- 0;
  Mapping_table.set_mappings t.mt [];
  Array.fill t.outstanding 0 (Array.length t.outstanding) 0;
  t.events.len <- 0
