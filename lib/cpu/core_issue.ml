(* Out-of-order issue with conservative memory disambiguation and
   store-to-load forwarding.

   Progress reporting matters here beyond the obvious issue slots:
   computing a store/load/CAS address (even when the access cannot
   issue yet) mutates disambiguation state that younger entries see,
   so it must count as progress for the fast-forwarding engine. *)

module Instr = Fscope_isa.Instr
module Fsb = Fscope_core.Fsb
open Core_state

(* Is an older entry something the fence's flavour must still wait
   for?  Loads and CAS: until their value is bound (CAS also writes, so
   it is in both classes).  Stores: as long as they are in the ROB they
   have not even reached the store buffer. *)
let mem_incomplete (k : Fscope_isa.Fence_kind.t) (o : Rob.entry) =
  match o.instr with
  | Instr.Load _ -> k.Fscope_isa.Fence_kind.wait_loads && o.state <> Rob.Done
  | Instr.Cas _ ->
    (k.Fscope_isa.Fence_kind.wait_loads || k.Fscope_isa.Fence_kind.wait_stores)
    && o.state <> Rob.Done
  | Instr.Store _ -> k.Fscope_isa.Fence_kind.wait_stores
  | Instr.Nop | Instr.Li _ | Instr.Alu _ | Instr.Tid _ | Instr.Branch _ | Instr.Jump _
  | Instr.Fence _ | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt ->
    false

let fence_kind (e : Rob.entry) =
  match e.instr with
  | Instr.Fence k -> k
  | _ -> assert false

let fence_issue_ok t (e : Rob.entry) =
  let k = fence_kind e in
  let sb_ok mask_opt =
    (not k.Fscope_isa.Fence_kind.wait_stores)
    ||
    match mask_opt with
    | None -> Store_buffer.is_empty t.sb
    | Some m -> not (Store_buffer.mask_overlaps t.sb m)
  in
  match e.fence_wait with
  | None -> assert false
  | Some `Global ->
    (not (Rob.exists_older t.rob e.seq (mem_incomplete k))) && sb_ok None
  | Some (`Mask m) ->
    (not
       (Rob.exists_older t.rob e.seq (fun o ->
            (not (Fsb.is_empty (Fsb.inter o.scope_mask m))) && mem_incomplete k o)))
    && sb_ok (Some m)

(* What should an issuing load do about the youngest older same-address
   memory operation? *)
type load_source =
  | From_memory
  | Forward of int
  | Must_wait

let load_disambiguate t (e : Rob.entry) =
  (* Any older store/CAS with an unknown address, or older same-address
     load still in flight, blocks the load (conservative
     disambiguation; same-address load-load order is coherence). *)
  if
    Rob.exists_older t.rob e.seq (fun o ->
        match o.instr with
        | Instr.Store _ | Instr.Cas _ -> o.addr < 0
        | Instr.Load _ -> o.addr = e.addr && o.state <> Rob.Done
        | _ -> false)
  then Must_wait
  else begin
    (* Youngest older same-address writer in the ROB decides. *)
    let matching =
      Rob.fold_older t.rob e.seq
        (fun acc o ->
          match o.instr with
          | (Instr.Store _ | Instr.Cas _) when o.addr = e.addr -> Some o
          | _ -> acc)
        None
    in
    match matching with
    | Some ({ instr = Instr.Store _; _ } as o) ->
      if o.state = Rob.Done then Forward o.data else Must_wait
    | Some ({ instr = Instr.Cas _; _ } as o) ->
      (* A completed CAS has already written memory; the load can read
         it there.  (No younger committed store can sit in the store
         buffer while the CAS is still in the ROB: commit is in
         order, and the CAS's own issue condition drained older
         same-address entries.) *)
      if o.state = Rob.Done then From_memory else Must_wait
    | Some _ | None -> (
      match Store_buffer.forward t.sb ~addr:e.addr with
      | Some v -> Forward v
      | None -> From_memory)
  end

let try_issue_load t (e : Rob.entry) ~cycle =
  match load_disambiguate t e with
  | Must_wait -> false
  | Forward v ->
    e.result <- v;
    e.data2 <- 1;
    Rob.set_state t.rob e (Rob.Executing (cycle + 1));
    (* a forward implies a store in flight — not a stable spin *)
    Core_spin.note_dirty t;
    true
  | From_memory ->
    if in_bounds t e.addr then begin
      let completes, level =
        Mem_port.issue_classified t.port ~core:t.id Mem_port.Read ~addr:e.addr
          ~now:cycle
      in
      e.data2 <- 0;
      e.mem_level <- Some level;
      Rob.set_state t.rob e (Rob.Executing completes);
      Core_spin.note_load t ~addr:e.addr ~level
    end
    else begin
      (* Wrong-path access to a garbage address: complete immediately
         with 0 and leave the caches untouched. *)
      e.result <- 0;
      e.data2 <- 1;
      Rob.set_state t.rob e (Rob.Executing (cycle + 1));
      Core_spin.note_dirty t
    end;
    true

let cas_issue_ok t (e : Rob.entry) =
  (* CAS performs a memory write at completion, which cannot be undone:
     it must be non-speculative (no unresolved older branch, no older
     uncommitted fence) and ordered after every older same-address
     access. *)
  (not
     (Rob.exists_older t.rob e.seq (fun o ->
          match o.instr with
          | Instr.Branch _ -> o.state <> Rob.Done
          | Instr.Fence _ -> not t.cfg.nop_fences
          | Instr.Store _ -> o.addr < 0 || o.addr = e.addr
          | Instr.Cas _ -> o.addr < 0 || (o.addr = e.addr && o.state <> Rob.Done)
          | Instr.Load _ -> o.addr = e.addr && o.state <> Rob.Done
          | _ -> false)))
  && not (Store_buffer.has_addr t.sb ~addr:e.addr)

(* Only [Waiting] entries can issue, so the walk covers the waiting
   queue, oldest first; an entry that issues leaves the queue as it is
   visited.  An unissued fence is [Waiting] by construction (a fence
   turns [Done] exactly when it issues or, under in-window speculation
   and no-fence runs, at dispatch). *)
let issue t ~cycle =
  let progress = ref false in
  let budget = ref t.cfg.issue_width in
  let start e d =
    Rob.set_state t.rob e (Rob.Executing d);
    progress := true;
    decr budget
  in
  (* In the non-speculative pipeline, an unissued fence whose flavour
     has [block_loads] blocks the issue of every younger load; any
     unissued fence blocks younger CAS and keeps younger fences from
     issuing (fences issue oldest-first). *)
  let pending_fence = ref false in
  let pending_blocking_fence = ref false in
  Rob.iter_waiting t.rob (fun e ->
      if !budget > 0 then begin
        match e.instr with
        | Instr.Fence k ->
          if (not t.cfg.in_window_speculation) && not !pending_fence then begin
            if fence_issue_ok t e then begin
              e.fence_issued <- true;
              Rob.set_state t.rob e Rob.Done;
              progress := true;
              decr budget
            end
            else begin
              pending_fence := true;
              if k.Fscope_isa.Fence_kind.block_loads then pending_blocking_fence := true
            end
          end
          else begin
            pending_fence := true;
            if k.Fscope_isa.Fence_kind.block_loads then pending_blocking_fence := true
          end
        | Instr.Li (_, v) ->
          e.result <- v;
          start e (cycle + 1)
        | Instr.Tid _ ->
          e.result <- t.id;
          start e (cycle + 1)
        | Instr.Alu (op, _, _, operand) ->
          if srcs_ready t cycle e then begin
            let a = src_get t e.srcs.(0) in
            let b =
              match operand with Instr.Reg _ -> src_get t e.srcs.(1) | Instr.Imm i -> i
            in
            e.result <- eval_alu op a b;
            start e (cycle + 1)
          end
        | Instr.Branch { cond; _ } ->
          if src_ready t cycle e.srcs.(0) then begin
            let v = src_get t e.srcs.(0) in
            let taken = match cond with Instr.Eqz -> v = 0 | Instr.Nez -> v <> 0 in
            e.result <- (if taken then 1 else 0);
            start e (cycle + 1)
          end
        | Instr.Store { off; _ } ->
          (* Address generation does not wait for the data: younger
             loads disambiguate against the address as soon as the
             base register is ready. *)
          if e.addr < 0 && src_ready t cycle e.srcs.(1) then begin
            e.addr <- src_get t e.srcs.(1) + off;
            progress := true
          end;
          if e.addr >= 0 && src_ready t cycle e.srcs.(0) then begin
            e.data <- src_get t e.srcs.(0);
            start e (cycle + 1)
          end
        | Instr.Load { off; _ } ->
          (* Address generation is free as soon as the base is ready;
             the issue slot is only spent on the actual access. *)
          if e.addr < 0 && src_ready t cycle e.srcs.(0) then begin
            e.addr <- src_get t e.srcs.(0) + off;
            progress := true
          end;
          if e.addr >= 0
             && ((not !pending_blocking_fence) || t.cfg.in_window_speculation)
             && try_issue_load t e ~cycle
          then begin
            progress := true;
            decr budget
          end
        | Instr.Cas { off; _ } ->
          if e.addr < 0 && srcs_ready t cycle e then begin
            e.addr <- src_get t e.srcs.(0) + off;
            e.data2 <- src_get t e.srcs.(1);
            e.data <- src_get t e.srcs.(2);
            progress := true
          end;
          if e.addr >= 0
             && (not !pending_fence) (* CAS never passes a fence speculatively *)
             && cas_issue_ok t e
          then begin
            if not (in_bounds t e.addr) then
              invalid_arg
                (Printf.sprintf "core %d: CAS on out-of-bounds address %d (pc %d)" t.id
                   e.addr e.pc);
            let completes, level =
              Mem_port.issue_classified t.port ~core:t.id Mem_port.Rmw ~addr:e.addr
                ~now:cycle
            in
            e.mem_level <- Some level;
            start e completes
          end
        | Instr.Nop | Instr.Jump _ | Instr.Fs_start _ | Instr.Fs_end _ | Instr.Halt -> ()
      end);
  !progress
