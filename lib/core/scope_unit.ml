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

type scope_op =
  | Push of int option (* Some column | None: counter-mode push *)
  | Pop

type event =
  | Ev_branch of { id : int; mutable resolved : bool }
  | Ev_op of scope_op

type t = {
  config : config;
  live : state;
  confirmed : state;
  mt : Mapping_table.t;
  outstanding : int array;
  mutable events : event list; (* decode order, oldest first *)
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
    events = [];
    trace;
    core;
  }

let config t = t.config
let enabled t = t.config.enabled
let set_column t = t.config.fsb_entries - 1

let apply st op =
  match op with
  | Push (Some col) ->
    if st.counter > 0 || Fss.is_full st.stack then st.counter <- st.counter + 1
    else Fss.push st.stack col
  | Push None -> st.counter <- st.counter + 1
  | Pop ->
    if st.counter > 0 then st.counter <- st.counter - 1
    else ignore (Fss.pop st.stack)

(* Apply every event that is no longer speculative to the confirmed
   state: stop at the first unresolved branch. *)
let drain t =
  let rec go = function
    | Ev_op op :: rest ->
      apply t.confirmed op;
      go rest
    | Ev_branch b :: rest when b.resolved -> go rest
    | events -> events
  in
  t.events <- go t.events

let record t op =
  apply t.live op;
  t.events <- t.events @ [ Ev_op op ];
  drain t

let fifo_pushes_contain t col =
  List.exists
    (function Ev_op (Push (Some c)) -> c = col | Ev_op (Push None | Pop) | Ev_branch _ -> false)
    t.events

let column_busy t col =
  t.outstanding.(col) > 0
  || Fss.contains t.live.stack col
  || Fss.contains t.confirmed.stack col
  || fifo_pushes_contain t col

let on_branch t ~id =
  if t.config.enabled then t.events <- t.events @ [ Ev_branch { id; resolved = false } ]

let on_branch_correct t ~id =
  if t.config.enabled then begin
    List.iter
      (function Ev_branch b when b.id = id -> b.resolved <- true | Ev_branch _ | Ev_op _ -> ())
      t.events;
    drain t
  end

let on_branch_mispredict t ~id =
  if t.config.enabled then begin
    (* The correct-path state is: confirmed state plus every buffered
       micro-op older than the mispredicted branch. *)
    let rec split prefix = function
      | Ev_branch b :: _ when b.id = id -> Some (List.rev prefix)
      | ev :: rest -> split (ev :: prefix) rest
      | [] -> None
    in
    match split [] t.events with
    | None ->
      (* The branch carried no scope events after it and none before:
         it may never have been recorded (only possible if it was
         dispatched before any scope activity and drained).  Restoring
         to confirmed state is still correct because every older event
         has, by definition, drained into it. *)
      Fss.copy_from t.live.stack t.confirmed.stack;
      t.live.counter <- t.confirmed.counter;
      t.events <- []
    | Some older ->
      Fss.copy_from t.live.stack t.confirmed.stack;
      t.live.counter <- t.confirmed.counter;
      List.iter (function Ev_op op -> apply t.live op | Ev_branch _ -> ()) older;
      t.events <- older
  end

let on_fs_start t ~cid =
  if t.config.enabled then begin
    let op =
      if t.live.counter > 0 then Push None
      else
        match Mapping_table.lookup_or_allocate t.mt ~cid ~column_busy:(column_busy t) with
        | Some col -> Push (Some col)
        | None -> Push None
    in
    if Fscope_obs.Trace.on t.trace then
      Fscope_obs.Trace.emit t.trace ~core:t.core
        (Fscope_obs.Event.Scope_push
           { column = (match op with Push col -> col | Pop -> None) });
    record t op
  end

let on_fs_end t ~cid:_ =
  if t.config.enabled then begin
    if Fscope_obs.Trace.on t.trace then
      Fscope_obs.Trace.emit t.trace ~core:t.core Fscope_obs.Event.Scope_pop;
    record t Pop
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

let on_bits_set t mask =
  List.iter (fun col -> t.outstanding.(col) <- t.outstanding.(col) + 1) (Fsb.columns mask)

let on_bits_cleared t mask =
  List.iter
    (fun col ->
      assert (t.outstanding.(col) > 0);
      t.outstanding.(col) <- t.outstanding.(col) - 1)
    (Fsb.columns mask)

let outstanding t col = t.outstanding.(col)

let fence_scope t kind =
  if not t.config.enabled then `Global
  else
    match Fscope_isa.Fence_kind.scope_of kind with
    | Fscope_isa.Fence_kind.Global -> `Global
    | Fscope_isa.Fence_kind.Class_scope ->
      if t.live.counter > 0 then `Global
      else (
        match Fss.top t.live.stack with
        | Some col -> `Mask (Fsb.column col)
        | None -> `Global (* class fence outside any scope: be conservative *))
    | Fscope_isa.Fence_kind.Set_scope ->
      if t.live.counter > 0 then `Global else `Mask (Fsb.column (set_column t))

let in_overflow t = t.live.counter > 0
let live_stack t = Fss.to_list t.live.stack
let confirmed_stack t = Fss.to_list t.confirmed.stack

(* Relativized fingerprint of the decode-order event FIFO, for the
   spin-stability probe: branch ids (ROB seqs) are expressed relative
   to [base] so two snapshots of the same in-flight shape compare
   equal.  [None] if any scope micro-op is still buffered — the probe
   treats that as unstable. *)
let spin_fingerprint t ~base =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Ev_branch b :: rest -> go ((base - b.id, b.resolved) :: acc) rest
    | Ev_op _ :: _ -> None
  in
  go [] t.events

let current_cid t =
  if (not t.config.enabled) || t.live.counter > 0 then None
  else
    match Fss.top t.live.stack with
    | None -> None
    | Some col -> Mapping_table.cid_of_column t.mt ~column:col

(* ------------------------------------------------------------------ *)
(* Checkpointing and sampled-mode reseeding. *)

module Json = Fscope_util.Json

let event_to_json = function
  | Ev_branch b -> Json.Arr [ Json.Str "branch"; Json.Int b.id; Json.Bool b.resolved ]
  | Ev_op (Push (Some col)) -> Json.Arr [ Json.Str "push"; Json.Int col ]
  | Ev_op (Push None) -> Json.Arr [ Json.Str "pushn" ]
  | Ev_op Pop -> Json.Arr [ Json.Str "pop" ]

let event_of_json j =
  match Json.list_exn j with
  | [ Json.Str "branch"; id; resolved ] ->
    Ev_branch { id = Json.int_exn id; resolved = Json.bool_exn resolved }
  | [ Json.Str "push"; col ] -> Ev_op (Push (Some (Json.int_exn col)))
  | [ Json.Str "pushn" ] -> Ev_op (Push None)
  | [ Json.Str "pop" ] -> Ev_op Pop
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
      ("events", Json.Arr (List.map event_to_json t.events));
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
  t.events <- List.map event_of_json (Json.list_exn (Json.get "events" j))

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
  t.events <- []
