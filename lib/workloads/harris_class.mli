(** Harris's lock-free sorted linked-list set (Table IV "harris") as a
    slang class.

    Nodes live in a preallocated pool: arrays [nkey] and [nnext],
    where a next field encodes [2*index + mark] (Harris's stolen mark
    bit).  Index 1 is the head sentinel (key 0, below every real key),
    index 2 the tail sentinel (key 1_000_000).  Real keys must lie
    strictly between.  Callers pass fresh node indices to [insert]
    (disjoint per-thread ranges in the harness, so no reuse and no
    ABA).

    Methods: [insert (k, node)], [delete k], [contains k], each
    returning 1 on success/presence.  The inner search loop is
    Harris's: it finds the adjacent (left, right) pair and unlinks
    marked chains with a CAS.  Fences (class-scoped): publishing a new
    node's fields before the link CAS, and ordering the mark CAS
    before the unlink CAS. *)

val head_index : int
val tail_index : int

val decl : fence:Fscope_slang.Ast.stmt -> pool:int -> Fscope_slang.Ast.class_decl
(** The class, named "Harris". *)

val set_fence_vars : instances:string list -> string list
