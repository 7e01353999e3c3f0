(* The simulated-statistics digest a point is checked by: cycle count,
   timeout flag, per-core committed instructions, per-core CPI leaves
   and the final memory image.  Two runs with equal digests agree on
   every simulated result the benchmark reports. *)

module Core = Fscope_cpu.Core
module Cpi = Fscope_obs.Cpi
module Machine = Fscope_machine.Machine

let make ~cycles ~timed_out ~(stats : Core.stats array) ~(cpi : Cpi.t array) ~mem =
  let b = Buffer.create (64 + (8 * Array.length mem)) in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  int cycles;
  int (Bool.to_int timed_out);
  Array.iter (fun (s : Core.stats) -> int s.Core.committed) stats;
  Buffer.add_char b '|';
  Array.iter (fun c -> Array.iter int (Cpi.to_array c)) cpi;
  Buffer.add_char b '|';
  Array.iter int mem;
  Digest.to_hex (Digest.string (Buffer.contents b))

let of_result (r : Machine.result) =
  make ~cycles:r.Machine.cycles ~timed_out:r.Machine.timed_out ~stats:r.Machine.core_stats
    ~cpi:r.Machine.core_cpi ~mem:r.Machine.mem
