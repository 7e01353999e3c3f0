(* A tiny fixed-capacity mutable bitset (63 bits per word), replacing
   the single-[int] bitmasks that capped the machine at 62 cores. *)

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

type t = int array

let words bits = (bits + bits_per_word - 1) / bits_per_word

let create ~bits =
  if bits < 0 then invalid_arg "Bitset.create: negative capacity";
  Array.make (Int.max 1 (words bits)) 0

let capacity t = Array.length t * bits_per_word

let check t i =
  if i < 0 || i >= capacity t then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  t.(i / bits_per_word) <- t.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  t.(i / bits_per_word) <- t.(i / bits_per_word) land lnot (1 lsl (i mod bits_per_word))

let singleton ~bits i =
  let t = create ~bits in
  add t i;
  t

(* Drop every member except (possibly) [i] — the directory's
   "invalidate all remote sharers" step. *)
let retain_only t i =
  let keep = mem t i in
  Array.fill t 0 (Array.length t) 0;
  if keep then add t i

let is_empty t = Array.for_all (fun w -> w = 0) t

let iter t f =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for b = 0 to bits_per_word - 1 do
          if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
        done)
    t

let fold t f acc =
  let acc = ref acc in
  iter t (fun i -> acc := f !acc i);
  !acc

let members t = List.rev (fold t (fun acc i -> i :: acc) [])

let of_members ~bits l =
  let t = create ~bits in
  List.iter (add t) l;
  t
