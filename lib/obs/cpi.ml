(* The CPI-stack taxonomy: a fixed set of leaves, a flat int-array
   table indexed by leaf, and O(1) bulk charging so the fast-forward
   engine can account a frozen span in one call. *)

type fence_scope =
  | Scoped
  | Unscoped

type leaf =
  | Commit
  | Spin_candidate
  | Frontend_empty
  | Branch_flush
  | Exec_dep
  | Mem_l1
  | Mem_l2
  | Mem_main
  | Sb_full
  | Fence_wait of fence_scope

let index = function
  | Commit -> 0
  | Spin_candidate -> 1
  | Frontend_empty -> 2
  | Branch_flush -> 3
  | Exec_dep -> 4
  | Mem_l1 -> 5
  | Mem_l2 -> 6
  | Mem_main -> 7
  | Sb_full -> 8
  | Fence_wait Scoped -> 9
  | Fence_wait Unscoped -> 10

let leaf_count = 11

let leaves =
  [
    Commit;
    Spin_candidate;
    Frontend_empty;
    Branch_flush;
    Exec_dep;
    Mem_l1;
    Mem_l2;
    Mem_main;
    Sb_full;
    Fence_wait Scoped;
    Fence_wait Unscoped;
  ]

let name = function
  | Commit -> "commit"
  | Spin_candidate -> "spin_candidate"
  | Frontend_empty -> "frontend_empty"
  | Branch_flush -> "branch_flush"
  | Exec_dep -> "exec_dep"
  | Mem_l1 -> "mem_l1"
  | Mem_l2 -> "mem_l2"
  | Mem_main -> "mem_main"
  | Sb_full -> "sb_full"
  | Fence_wait Scoped -> "fence_sb_scoped"
  | Fence_wait Unscoped -> "fence_sb_unscoped"

type t = int array

let create () = Array.make leaf_count 0
let copy (t : t) = Array.copy t
let charge (t : t) leaf = t.(index leaf) <- t.(index leaf) + 1

let charge_n (t : t) leaf ~times =
  if times > 0 then t.(index leaf) <- t.(index leaf) + times

let get (t : t) leaf = t.(index leaf)
let total (t : t) = Array.fold_left ( + ) 0 t

let fence_scope_cycles (t : t) scope = get t (Fence_wait scope)
let fence_cycles (t : t) = fence_scope_cycles t Scoped + fence_scope_cycles t Unscoped

let accumulate ~into (t : t) =
  Array.iteri (fun i v -> into.(i) <- into.(i) + v) t

let equal (a : t) (b : t) = a = b

let to_array (t : t) = Array.copy t
let blit (t : t) a = Array.blit t 0 a 0 leaf_count

let restore (t : t) (src : int array) =
  if Array.length src <> leaf_count then invalid_arg "Cpi.restore: wrong arity";
  Array.blit src 0 t 0 leaf_count
