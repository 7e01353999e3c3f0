(* Out-of-order issue with conservative memory disambiguation and
   store-to-load forwarding.

   Progress reporting matters here beyond the obvious issue slots:
   computing a store/load/CAS address (even when the access cannot
   issue yet) mutates disambiguation state that younger entries see,
   so it must count as progress for the fast-forwarding engine. *)

module Instr = Fscope_isa.Instr
module Scope_unit = Fscope_core.Scope_unit
open Core_state

let fence_kind (e : Rob.entry) =
  match e.instr with
  | Instr.Fence k -> k
  | _ -> assert false

(* May the fence issue?  It waits for every older access its flavour
   orders: loads and CAS until their value is bound, stores as long as
   they are in the ROB (they have not even reached the store buffer)
   and then until they drain.  The ROB keeps the oldest such access per
   FSB column (and over all entries for a global fence), so "older than
   the fence" is one seq comparison per column of the fence's mask —
   the paper's column check of the FSB bits. *)
let older_access t (k : Fscope_isa.Fence_kind.t) ~seq col =
  (k.Fscope_isa.Fence_kind.wait_loads && Rob.oldest_read t.rob col < seq)
  || (k.Fscope_isa.Fence_kind.wait_stores && Rob.oldest_store t.rob col < seq)

(* No older access the fence waits for in the columns of [m] from [col]. *)
let rec columns_clear t k ~seq m col =
  m = 0
  || ((m land 1 = 0 || not (older_access t k ~seq col))
     && columns_clear t k ~seq (m lsr 1) (col + 1))

let fence_issue_ok t (e : Rob.entry) =
  let k = fence_kind e in
  let w = e.fence_wait in
  assert (w <> Rob.wait_none);
  let scoped = w <> Scope_unit.wait_global in
  let sb_ok =
    (not k.Fscope_isa.Fence_kind.wait_stores)
    || if scoped then not (Store_buffer.mask_overlaps t.sb w) else Store_buffer.is_empty t.sb
  in
  (if scoped then columns_clear t k ~seq:e.seq w 0
   else not (older_access t k ~seq:e.seq Rob.all_columns))
  && sb_ok

(* What an issuing load does about the older memory operations: read
   memory, take a forwarded value (left in the load's [result]), or
   wait for the older entry whose seq [load_disambiguate] returns
   instead (a seq, so no constructor is allocated per check). *)
let from_memory = -1
let forward = -2

(* An older same-address load still in flight: same-address load-load
   order is coherence. *)
let same_addr_load (e : Rob.entry) (o : Rob.entry) =
  match o.instr with
  | Instr.Load _ -> o.addr = e.addr && o.state <> Rob.Done
  | _ -> false

let same_addr_writer (e : Rob.entry) (o : Rob.entry) =
  match o.instr with
  | Instr.Store _ | Instr.Cas _ -> o.addr = e.addr
  | _ -> false

(* The load waits (conservative disambiguation) for the oldest older
   store/CAS with an unknown address until it has one, for the
   youngest older same-address load still in flight, and for the
   youngest older same-address writer until it is [Done]; each is a
   blocker the load can park on.  Otherwise that writer decides. *)
let load_disambiguate t (e : Rob.entry) =
  let u = Rob.oldest_unknown_addr t.rob in
  if u < e.seq then u
  else
    let l = Rob.youngest_older t.rob e.seq same_addr_load e in
    if l >= 0 then l
    else begin
      let w = Rob.youngest_older t.rob e.seq same_addr_writer e in
      if w >= 0 then begin
        let o = Rob.get t.rob w in
        if o.state <> Rob.Done then w
        else
          match o.instr with
          | Instr.Store _ ->
            e.result <- o.data;
            forward
          | _ ->
            (* A completed CAS has already written memory; the load can
               read it there.  (No younger committed store can sit in the
               store buffer while the CAS is still in the ROB: commit is
               in order, and the CAS's own issue condition drained older
               same-address entries.) *)
            from_memory
      end
      else begin
        let i = Store_buffer.youngest_to t.sb ~addr:e.addr in
        if i >= 0 then begin
          e.result <- Store_buffer.value_at t.sb i;
          forward
        end
        else from_memory
      end
    end

let try_issue_load t (e : Rob.entry) ~cycle =
  let source = load_disambiguate t e in
  if source >= 0 then begin
    Rob.park t.rob e ~blocker:source;
    false
  end
  else if source = forward then begin
    e.data2 <- 1;
    Rob.set_executing t.rob e ~done_at:(cycle + 1);
    (* a forward implies a store in flight — not a stable spin *)
    Core_spin.note_dirty t;
    true
  end
  else begin
    if in_bounds t e.addr then begin
      let completes = Mem_port.issue t.port ~core:t.id Mem_port.Read ~addr:e.addr ~now:cycle in
      let level = Mem_port.last_level t.port in
      e.data2 <- 0;
      e.mem_level <- Rob.served level;
      Rob.set_executing t.rob e ~done_at:completes;
      Core_spin.note_load t ~addr:e.addr ~level
    end
    else begin
      (* Wrong-path access to a garbage address: complete immediately
         with 0 and leave the caches untouched. *)
      e.result <- 0;
      e.data2 <- 1;
      Rob.set_executing t.rob e ~done_at:(cycle + 1);
      Core_spin.note_dirty t
    end;
    true
  end

(* CAS performs a memory write at completion, which cannot be undone:
   it must be non-speculative (no unresolved older branch, no older
   uncommitted fence) and ordered after every older same-address
   access. *)
let blocks_cas t (e : Rob.entry) (o : Rob.entry) =
  match o.instr with
  | Instr.Branch _ -> o.state <> Rob.Done
  | Instr.Fence _ -> not t.cfg.nop_fences
  | Instr.Store _ -> o.addr < 0 || o.addr = e.addr
  | Instr.Cas _ -> o.addr < 0 || (o.addr = e.addr && o.state <> Rob.Done)
  | Instr.Load _ -> o.addr = e.addr && o.state <> Rob.Done
  | _ -> false

let rec blocked_cas_from t (e : Rob.entry) s =
  s < e.seq && (blocks_cas t e (Rob.get t.rob s) || blocked_cas_from t e (s + 1))

let cas_issue_ok t (e : Rob.entry) =
  (not (blocked_cas_from t e (Rob.head_seq t.rob)))
  && not (Store_buffer.has_addr t.sb ~addr:e.addr)

(* The seq of the in-flight producer of source [i] of [e] that is not
   [Done] yet, or -1: [e] cannot read that source before the producer
   is [Done].  Issue runs after the completion phases and [finalize],
   which leave no entry [Executing] past its [done_at], so an
   [Executing] producer's value is not ready this cycle. *)
let pending_producer t (e : Rob.entry) i ~cycle =
  if Reg.equal (Rob.src_reg e i) Reg.zero then -1
  else
    let seq = Rob.src_producer e i in
    if seq < 0 || not (Rob.contains t.rob seq) then -1
    else
      let p = Rob.get t.rob seq in
      match p.state with
      | Rob.Waiting -> seq
      | Rob.Executing ->
        assert (p.done_at > cycle);
        seq
      | Rob.Done -> -1

(* Park [e] on the first of its sources whose producer is not [Done]. *)
let rec park_on_srcs_from t (e : Rob.entry) i ~cycle =
  if i < e.n_srcs then begin
    let p = pending_producer t e i ~cycle in
    if p >= 0 then Rob.park t.rob e ~blocker:p else park_on_srcs_from t e (i + 1) ~cycle
  end

let park_on_srcs t e ~cycle = park_on_srcs_from t e 0 ~cycle

let park_on_src t (e : Rob.entry) i ~cycle =
  let p = pending_producer t e i ~cycle in
  if p >= 0 then Rob.park t.rob e ~blocker:p

(* Only [Waiting] entries can issue, so the walk covers the waiting
   queue, oldest first; an entry that issues leaves the queue as it is
   visited.  An unissued fence is [Waiting] by construction (a fence
   turns [Done] exactly when it issues or, under in-window speculation
   and no-fence runs, at dispatch).

   An entry that cannot act until one specific older entry is [Done]
   is parked on it ({!Rob.park}) and drops out of the walks until
   then: an ALU op, branch or store-data read whose producer is not
   [Done], an address generation whose operand producer is not [Done],
   a load behind an unissued fence that blocks loads, and a load that
   disambiguation holds back (behind a store or CAS with an unknown
   address, which wakes it when given one, or behind a same-address
   load or writer).  Visiting it meanwhile would change nothing, so
   parking is invisible in the results.  A blocker that turns [Done]
   in a completion phase wakes the entry before this walk starts; one
   that turns [Done] or gets its address during the walk is older
   than the entry, so the walk still reaches it (a load behind a
   fence issues in the cycle the fence does, a consumer of a load in
   the cycle the load completes).

   The walk's state travels in its arguments: the issue slots left
   ([budget]) and, in the non-speculative pipeline, whether an
   unissued fence was passed ([pending_fence]: it blocks younger CAS
   and keeps younger fences from issuing — fences issue oldest-first)
   and the seq of the oldest unissued fence whose flavour has
   [block_loads] ([blocking_fence], -1 = none: it blocks the issue of
   every younger load).  A visit returns the slots it used, or -1 for
   none but progress (an address computed), 0 for neither. *)

let start t (e : Rob.entry) ~done_at =
  Rob.set_executing t.rob e ~done_at;
  1

(* Address generation does not wait for the data: younger loads
   disambiguate against a store's address as soon as its base
   register is ready.  Returns whether the address was computed. *)
let agen t (e : Rob.entry) ~cycle ~base ~off =
  e.addr < 0
  && src_ready t cycle e base
  && begin
       Rob.set_addr t.rob e (src_get t e base + off);
       true
     end

let visit t (e : Rob.entry) ~cycle ~pending_fence ~blocking_fence =
  match e.instr with
  | Instr.Fence _ -> assert false (* the walk handles fences *)
  | Instr.Li (_, v) ->
    e.result <- v;
    start t e ~done_at:(cycle + 1)
  | Instr.Tid _ ->
    e.result <- t.id;
    start t e ~done_at:(cycle + 1)
  | Instr.Alu (op, _, _, operand) ->
    if srcs_ready t cycle e then begin
      let a = src_get t e 0 in
      let b = match operand with Instr.Reg _ -> src_get t e 1 | Instr.Imm i -> i in
      e.result <- eval_alu op a b;
      start t e ~done_at:(cycle + 1)
    end
    else begin
      park_on_srcs t e ~cycle;
      0
    end
  | Instr.Branch { cond; _ } ->
    if src_ready t cycle e 0 then begin
      let v = src_get t e 0 in
      let taken = match cond with Instr.Eqz -> v = 0 | Instr.Nez -> v <> 0 in
      e.result <- (if taken then 1 else 0);
      start t e ~done_at:(cycle + 1)
    end
    else begin
      park_on_src t e 0 ~cycle;
      0
    end
  | Instr.Store { off; _ } ->
    let computed = agen t e ~cycle ~base:1 ~off in
    if e.addr < 0 then begin
      park_on_src t e 1 ~cycle;
      0
    end
    else if src_ready t cycle e 0 then begin
      e.data <- src_get t e 0;
      start t e ~done_at:(cycle + 1)
    end
    else begin
      park_on_src t e 0 ~cycle;
      if computed then -1 else 0
    end
  | Instr.Load { off; _ } ->
    (* Address generation is free as soon as the base is ready; the
       issue slot is only spent on the actual access. *)
    let computed = agen t e ~cycle ~base:0 ~off in
    if e.addr < 0 then begin
      park_on_src t e 0 ~cycle;
      0
    end
    else if blocking_fence >= 0 && not t.cfg.in_window_speculation then begin
      Rob.park t.rob e ~blocker:blocking_fence;
      if computed then -1 else 0
    end
    else if try_issue_load t e ~cycle then 1
    else if computed then -1
    else 0
  | Instr.Cas { off; _ } ->
    let computed =
      e.addr < 0
      &&
      if srcs_ready t cycle e then begin
        Rob.set_addr t.rob e (src_get t e 0 + off);
        e.data2 <- src_get t e 1;
        e.data <- src_get t e 2;
        true
      end
      else begin
        park_on_srcs t e ~cycle;
        false
      end
    in
    if e.addr >= 0 && (not pending_fence) (* CAS never passes a fence speculatively *)
       && cas_issue_ok t e
    then begin
      if not (in_bounds t e.addr) then
        invalid_arg
          (Printf.sprintf "core %d: CAS on out-of-bounds address %d (pc %d)" t.id e.addr e.pc);
      let completes = Mem_port.issue t.port ~core:t.id Mem_port.Rmw ~addr:e.addr ~now:cycle in
      e.mem_level <- Rob.served (Mem_port.last_level t.port);
      start t e ~done_at:completes
    end
    else if computed then -1
    else 0
  | Instr.Nop | Instr.Jump _ | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt -> 0

let rec issue_from t cycle slot ~budget ~pending_fence ~blocking_fence progress =
  if slot < 0 || budget <= 0 then progress
  else begin
    let e = Rob.slot_entry t.rob slot and prev = Rob.queue_prev t.rob slot in
    match e.instr with
    | Instr.Fence k ->
      if (not t.cfg.in_window_speculation) && (not pending_fence) && fence_issue_ok t e then begin
        e.fence_issued <- true;
        Rob.set_state t.rob e Rob.Done;
        issue_from t cycle
          (Rob.queue_next t.rob Rob.waiting_q slot prev)
          ~budget:(budget - 1) ~pending_fence ~blocking_fence true
      end
      else
        let blocking_fence =
          if k.Fscope_isa.Fence_kind.block_loads && blocking_fence < 0 then e.seq
          else blocking_fence
        in
        issue_from t cycle
          (Rob.queue_next t.rob Rob.waiting_q slot prev)
          ~budget ~pending_fence:true ~blocking_fence progress
    | _ ->
      let used = visit t e ~cycle ~pending_fence ~blocking_fence in
      issue_from t cycle
        (Rob.queue_next t.rob Rob.waiting_q slot prev)
        ~budget:(budget - Int.max 0 used) ~pending_fence ~blocking_fence (progress || used <> 0)
  end

let issue t ~cycle =
  issue_from t cycle (Rob.queue_first t.rob Rob.waiting_q) ~budget:t.cfg.issue_width
    ~pending_fence:false ~blocking_fence:(-1) false
