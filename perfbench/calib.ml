(* Host speed calibration.

   On a shared host, other tenants slow the simulator by up to twofold,
   in spells from seconds to minutes that can outlast a whole run.  On
   a 2-vCPU Xeon VM, one pass of advise-traced took 1.7 s to 3.6 s
   within four minutes, and five runs of the same code gave medians
   whose interquartile spread was 0.18-0.32 of their median.  A
   compute-only loop barely slows in those spells; [measure] runs a
   fixed miniature of the simulator's own kind of work, which does:

   - random lookups into a table of a few MB (cache misses, as the
     simulator's cache model and heap produce), and
   - a toy 8-core interpreter over a 512 KB memory (records, variant
     dispatch and data-dependent branches, as [Core] stepping does).

   Its time correlates with the time of the point run next to it
   (Pearson r 0.5-0.8), where a 64 MB pointer chase or a pure ALU loop
   did not, and dividing point times by it cut the same five-run
   spread to 0.04-0.09.  It allocates next to nothing, so the GC
   figures stay the simulator's, and it is the benchmark's own code:
   a change to the simulator cannot move it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let keys = 200_000
let lookups = 125_000

let table =
  let t = Hashtbl.create 65536 in
  for k = 0 to keys - 1 do
    if k mod 2 = 0 then Hashtbl.replace t k (k * 7)
  done;
  t

let lookup_loop () =
  let st = ref 12345 and acc = ref 0 in
  for _ = 1 to lookups do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    match Hashtbl.find table (!st mod keys) with
    | v -> acc := !acc + v
    | exception Not_found -> incr acc
  done;
  !acc

type op = Add of int | Load of int | Branch of int | Store of int
type toy_core = { mutable pc : int; regs : int array; mutable stall : int }

let code_size = 4096
let mem_words = 65536
let toy_cycles = 120_000

let code =
  Array.init code_size (fun i ->
      match (i * 2654435761) land 3 with
      | 0 -> Add (i land 7)
      | 1 -> Load ((i * 97) land (mem_words - 1))
      | 2 -> Branch ((i * 31) land (code_size - 1))
      | _ -> Store ((i * 53) land (mem_words - 1)))

(* Reset before every run, so every calibration does the same work. *)
let mem = Array.make mem_words 0

let toy_loop () =
  Array.fill mem 0 mem_words 0;
  let cores = Array.init 8 (fun i -> { pc = i * 500; regs = Array.make 8 0; stall = 0 }) in
  for _ = 1 to toy_cycles do
    Array.iter
      (fun c ->
        if c.stall > 0 then c.stall <- c.stall - 1
        else begin
          (match code.(c.pc) with
          | Add r -> c.regs.(r) <- c.regs.(r) + c.pc
          | Load a ->
            c.regs.(a land 7) <- mem.(a);
            c.stall <- mem.(a) land 1
          | Branch t -> if c.regs.(t land 7) land 1 = 0 then c.pc <- t - 1
          | Store a -> mem.(a) <- c.regs.(a land 7));
          c.pc <- (c.pc + 1) land (code_size - 1)
        end)
      cores
  done;
  Array.fold_left (fun acc c -> acc + c.regs.(0)) 0 cores

(* Host seconds of one calibration, about [ref_s] on a quiet host. *)
let measure () =
  let t0 = now_ns () in
  let v = lookup_loop () + toy_loop () in
  ignore (Sys.opaque_identity v);
  float_of_int (now_ns () - t0) /. 1e9

let ref_s = 0.025
