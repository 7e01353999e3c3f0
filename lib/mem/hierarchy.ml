type config = {
  l1_sets : int;
  l1_ways : int;
  l2_sets : int;
  l2_ways : int;
  line_words : int;
  l1_latency : int;
  l2_latency : int;
  mem_latency : int;
  c2c_latency : int;
}

(* 32 KB L1 = 1024 32-byte lines = 256 sets x 4 ways;
   1 MB L2 = 32768 lines = 4096 sets x 8 ways. *)
let default_config =
  {
    l1_sets = 256;
    l1_ways = 4;
    l2_sets = 4096;
    l2_ways = 8;
    line_words = 8;
    l1_latency = 2;
    l2_latency = 10;
    mem_latency = 300;
    c2c_latency = 20;
  }

type kind =
  | Read
  | Write
  | Rmw

type l1_state =
  | Shared
  | Modified

type dir_entry = {
  sharers : Bitset.t; (* set of cores holding the line *)
  mutable owner : int; (* core holding the line Modified, or -1 *)
}

type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable l2_hits : int;
  mutable l2_misses : int;
  mutable invalidations : int;
  mutable c2c_transfers : int;
}

type t = {
  config : config;
  cores : int;
  l1 : l1_state Cache.t array;
  l2 : dir_entry Cache.t;
  stats : stats;
  mutable last_outcome : Fscope_obs.Event.mem_outcome;  (* of the last access *)
  trace : Fscope_obs.Trace.t;
  (* Called just BEFORE another core's activity mutates [core]'s L1
     state (invalidation, recall, Modified->Shared downgrade).  The
     engine's spin fast-forward uses it to wake a sleeping core before
     anything it cached changes; the default is free. *)
  mutable on_remote_victim : core:int -> unit;
}

(* The payload of an invalid L2 slot; never read as a directory
   entry. *)
let no_dir = { sharers = Bitset.create ~bits:0; owner = -1 }

let create ?(trace = Fscope_obs.Trace.null) ~cores config =
  if cores <= 0 then invalid_arg "Hierarchy.create: bad core count";
  {
    config;
    cores;
    l1 =
      Array.init cores (fun _ ->
          Cache.create ~sets:config.l1_sets ~ways:config.l1_ways
            ~line_words:config.line_words ~empty:Shared);
    l2 =
      Cache.create ~sets:config.l2_sets ~ways:config.l2_ways ~line_words:config.line_words
        ~empty:no_dir;
    stats =
      { l1_hits = 0; l1_misses = 0; l2_hits = 0; l2_misses = 0; invalidations = 0;
        c2c_transfers = 0 };
    last_outcome = Fscope_obs.Event.L1_hit;
    trace;
    on_remote_victim = (fun ~core:_ -> ());
  }

let set_remote_victim_hook t f = t.on_remote_victim <- f

let emit_access t ~core ~addr ~write outcome =
  if Fscope_obs.Trace.records t.trace then
    Fscope_obs.Trace.mem_access t.trace ~core ~addr ~write ~outcome

let stats t = t.stats
let line_words t = t.config.line_words

let l1_resident t ~core ~addr = Cache.resident t.l1.(core) addr

(* An L1 eviction silently drops a Shared line and writes back a
   Modified one; either way the directory stops tracking that core. *)
let on_l1_eviction t ~core line state =
  let s = Cache.peek t.l2 line in
  (* the L2 line may have been recalled first; nothing to update then *)
  if s >= 0 then begin
    let dir = Cache.payload t.l2 s in
    Bitset.remove dir.sharers core;
    if state = Modified && dir.owner = core then dir.owner <- -1
  end

let insert_l1 t ~core line state =
  let l1 = t.l1.(core) in
  let s = Cache.victim l1 line in
  let evicted = Cache.line l1 s and evicted_state = Cache.payload l1 s in
  Cache.fill l1 s line state;
  if evicted >= 0 then on_l1_eviction t ~core evicted evicted_state

(* Inclusive L2: evicting an L2 line recalls every L1 copy. *)
let on_l2_eviction t line dir =
  for core = 0 to t.cores - 1 do
    if Bitset.mem dir.sharers core then begin
      t.on_remote_victim ~core;
      ignore (Cache.invalidate t.l1.(core) line)
    end
  done

let insert_l2 t line dir =
  let s = Cache.victim t.l2 line in
  let evicted = Cache.line t.l2 s and evicted_dir = Cache.payload t.l2 s in
  Cache.fill t.l2 s line dir;
  if evicted >= 0 then on_l2_eviction t evicted evicted_dir

(* Kill every remote copy of [line]; returns true if the dirty data had
   to come from a remote L1 (cache-to-cache transfer). *)
let invalidate_remotes t ~core dir line =
  let dirty_remote = dir.owner >= 0 && dir.owner <> core in
  for c = 0 to t.cores - 1 do
    if c <> core && Bitset.mem dir.sharers c then begin
      t.on_remote_victim ~core:c;
      ignore (Cache.invalidate t.l1.(c) line);
      t.stats.invalidations <- t.stats.invalidations + 1
    end
  done;
  Bitset.retain_only dir.sharers core;
  if dir.owner <> core then dir.owner <- -1;
  if dirty_remote then t.stats.c2c_transfers <- t.stats.c2c_transfers + 1;
  dirty_remote

let read t ~core addr =
  let cfg = t.config in
  let line = Cache.line_addr t.l2 addr in
  if Cache.find t.l1.(core) addr >= 0 then begin
    t.stats.l1_hits <- t.stats.l1_hits + 1;
    emit_access t ~core ~addr ~write:false Fscope_obs.Event.L1_hit;
    t.last_outcome <- Fscope_obs.Event.L1_hit;
    cfg.l1_latency
  end
  else begin
    t.stats.l1_misses <- t.stats.l1_misses + 1;
    let s = Cache.find t.l2 addr in
    if s >= 0 then begin
      let dir = Cache.payload t.l2 s in
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      emit_access t ~core ~addr ~write:false Fscope_obs.Event.L2_hit;
      let c2c =
        if dir.owner >= 0 && dir.owner <> core then begin
          (* Remote dirty copy: downgrade the owner to Shared. *)
          t.on_remote_victim ~core:dir.owner;
          Cache.update t.l1.(dir.owner) line Shared;
          dir.owner <- -1;
          t.stats.c2c_transfers <- t.stats.c2c_transfers + 1;
          cfg.c2c_latency
        end
        else 0
      in
      Bitset.add dir.sharers core;
      insert_l1 t ~core line Shared;
      t.last_outcome <- Fscope_obs.Event.L2_hit;
      cfg.l1_latency + cfg.l2_latency + c2c
    end
    else begin
      t.stats.l2_misses <- t.stats.l2_misses + 1;
      emit_access t ~core ~addr ~write:false Fscope_obs.Event.L2_miss;
      insert_l2 t line { sharers = Bitset.singleton ~bits:t.cores core; owner = -1 };
      insert_l1 t ~core line Shared;
      t.last_outcome <- Fscope_obs.Event.L2_miss;
      cfg.l1_latency + cfg.l2_latency + cfg.mem_latency
    end
  end

let write t ~core addr =
  let cfg = t.config in
  let line = Cache.line_addr t.l2 addr in
  let s = Cache.find t.l1.(core) addr in
  if s >= 0 then begin
    t.stats.l1_hits <- t.stats.l1_hits + 1;
    match Cache.payload t.l1.(core) s with
    | Modified ->
      emit_access t ~core ~addr ~write:true Fscope_obs.Event.L1_hit;
      t.last_outcome <- Fscope_obs.Event.L1_hit;
      cfg.l1_latency
    | Shared ->
      (* Upgrade: a directory round trip to invalidate other sharers. *)
      emit_access t ~core ~addr ~write:true Fscope_obs.Event.L1_hit;
      let d = Cache.peek t.l2 addr in
      (* an L1 line is always in the inclusive L2 *)
      if d >= 0 then begin
        let dir = Cache.payload t.l2 d in
        ignore (invalidate_remotes t ~core dir line);
        dir.owner <- core
      end;
      Cache.update t.l1.(core) line Modified;
      t.last_outcome <- Fscope_obs.Event.L1_hit;
      cfg.l1_latency + cfg.l2_latency
  end
  else begin
    t.stats.l1_misses <- t.stats.l1_misses + 1;
    let s = Cache.find t.l2 addr in
    if s >= 0 then begin
      let dir = Cache.payload t.l2 s in
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      emit_access t ~core ~addr ~write:true Fscope_obs.Event.L2_hit;
      let dirty_remote = invalidate_remotes t ~core dir line in
      Bitset.retain_only dir.sharers core;
      Bitset.add dir.sharers core;
      dir.owner <- core;
      insert_l1 t ~core line Modified;
      t.last_outcome <- Fscope_obs.Event.L2_hit;
      cfg.l1_latency + cfg.l2_latency + if dirty_remote then cfg.c2c_latency else 0
    end
    else begin
      t.stats.l2_misses <- t.stats.l2_misses + 1;
      emit_access t ~core ~addr ~write:true Fscope_obs.Event.L2_miss;
      insert_l2 t line { sharers = Bitset.singleton ~bits:t.cores core; owner = core };
      insert_l1 t ~core line Modified;
      t.last_outcome <- Fscope_obs.Event.L2_miss;
      cfg.l1_latency + cfg.l2_latency + cfg.mem_latency
    end
  end

let access t ~core kind ~addr =
  if addr < 0 then invalid_arg "Hierarchy.access: negative address";
  match kind with
  | Read -> read t ~core addr
  | Write | Rmw -> write t ~core addr

let last_outcome t = t.last_outcome

let access_classified t ~core kind ~addr =
  let latency = access t ~core kind ~addr in
  (latency, t.last_outcome)

(* ------------------------------------------------------------------ *)
(* Checkpointing.  The dump is positional down to (set, way) slots and
   LRU clocks — replacement and victim choice depend on both — so a
   restored hierarchy serves every future access with the same latency,
   level and coherence actions as the uninterrupted run. *)

module Json = Fscope_util.Json

let cache_to_json ~payload cache =
  let clock, slots = Cache.dump cache ~payload in
  Json.Obj
    [
      ("clock", Json.Int clock);
      ( "slots",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun set ->
                  Json.Arr
                    (Array.to_list
                       (Array.map
                          (fun (tag, last_used, p) ->
                            Json.Arr
                              [
                                Json.Int tag;
                                Json.Int last_used;
                                (match p with None -> Json.Null | Some j -> j);
                              ])
                          set)))
                slots)) );
    ]

let cache_restore ~payload cache j =
  let clock = Json.int_exn (Json.get "clock" j) in
  let slots =
    Array.of_list
      (List.map
         (fun set ->
           Array.of_list
             (List.map
                (fun slot ->
                  match Json.list_exn slot with
                  | [ tag; last_used; p ] ->
                    ( Json.int_exn tag,
                      Json.int_exn last_used,
                      match p with Json.Null -> None | p -> Some p )
                  | _ -> failwith "checkpoint: malformed cache slot")
                (Json.list_exn set)))
         (Json.list_exn (Json.get "slots" j)))
  in
  try Cache.restore cache ~payload (clock, slots)
  with Invalid_argument msg -> failwith ("checkpoint: " ^ msg)

let l1_payload = function Shared -> Json.Int 0 | Modified -> Json.Int 1

let l1_unpayload j =
  match Json.int_exn j with
  | 0 -> Shared
  | 1 -> Modified
  | _ -> failwith "checkpoint: bad L1 state"

let dir_payload (d : dir_entry) =
  Json.Obj
    [
      ("sharers", Json.Arr (List.map (fun c -> Json.Int c) (Bitset.members d.sharers)));
      ("owner", Json.Int d.owner);
    ]

let dir_unpayload ~cores j =
  {
    sharers = Bitset.of_members ~bits:cores (Json.int_list_exn (Json.get "sharers" j));
    owner = Json.int_exn (Json.get "owner" j);
  }

let to_json t =
  let s = t.stats in
  Json.Obj
    [
      ( "stats",
        Json.Arr
          (List.map
             (fun v -> Json.Int v)
             [
               s.l1_hits; s.l1_misses; s.l2_hits; s.l2_misses; s.invalidations;
               s.c2c_transfers;
             ]) );
      ( "l1",
        Json.Arr
          (Array.to_list (Array.map (cache_to_json ~payload:l1_payload) t.l1)) );
      ("l2", cache_to_json ~payload:dir_payload t.l2);
    ]

let restore t j =
  (match Json.int_list_exn (Json.get "stats" j) with
  | [ a; b; c; d; e; f ] ->
    t.stats.l1_hits <- a;
    t.stats.l1_misses <- b;
    t.stats.l2_hits <- c;
    t.stats.l2_misses <- d;
    t.stats.invalidations <- e;
    t.stats.c2c_transfers <- f
  | _ -> failwith "checkpoint: malformed hierarchy stats");
  let l1 = Json.list_exn (Json.get "l1" j) in
  if List.length l1 <> Array.length t.l1 then
    failwith "checkpoint: L1 core-count mismatch";
  List.iteri (fun core cj -> cache_restore ~payload:l1_unpayload t.l1.(core) cj) l1;
  cache_restore ~payload:(dir_unpayload ~cores:t.cores) t.l2 (Json.get "l2" j)

let check_invariants t =
  let result = ref (Ok ()) in
  let fail msg = if !result = Ok () then result := Error msg in
  (* 1. At most one Modified copy per line, and it matches the owner. *)
  let modified : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun core l1 ->
      Cache.iter l1 (fun line state ->
          (* Inclusivity. *)
          let d = Cache.peek t.l2 line in
          if d < 0 then fail (Printf.sprintf "line %d in L1 of core %d but not in L2" line core)
          else if not (Bitset.mem (Cache.payload t.l2 d).sharers core) then
            fail
              (Printf.sprintf "line %d in L1 of core %d but not in directory sharers" line core);
          if state = Modified then begin
            (match Hashtbl.find_opt modified line with
            | Some other ->
              fail
                (Printf.sprintf "line %d Modified in cores %d and %d" line other core)
            | None -> Hashtbl.add modified line core);
            let d = Cache.peek t.l2 line in
            if d >= 0 && (Cache.payload t.l2 d).owner <> core then
              fail
                (Printf.sprintf "line %d Modified in core %d but owner is %d" line core
                   (Cache.payload t.l2 d).owner)
          end))
    t.l1;
  (* 2. Directory sharers only name cores that actually hold the line. *)
  Cache.iter t.l2 (fun line dir ->
      for core = 0 to t.cores - 1 do
        if Bitset.mem dir.sharers core && not (Cache.resident t.l1.(core) line)
        then fail (Printf.sprintf "directory says core %d shares line %d; L1 disagrees" core line)
      done;
      if dir.owner >= 0 && not (Bitset.mem dir.sharers dir.owner) then
        fail (Printf.sprintf "line %d owner %d not in sharers" line dir.owner));
  match !result with
  | Ok () -> Ok "ok"
  | Error e -> Error e
