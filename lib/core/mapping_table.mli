(** The cid -> FSB-column mapping table (MT) of §IV-A.3.

    Class ids are mapped to FSB columns when their first [fs_start] is
    decoded.  When more simultaneously active scopes exist than free
    columns, new scopes share one designated overflow column ("we
    simply choose one specific FSB entry" — the implementation stays
    consistent with S-Fence semantics because sharing only makes
    fences stricter).  A mapping is reclaimed once its column is
    quiescent: no FSB bit outstanding and the column on no scope
    stack (the [column_busy] callback supplies that knowledge, which
    in hardware lives in the FSB clear logic). *)

type t

val create : entries:int -> class_columns:int -> t
(** [entries] is the MT capacity (how many cids can be tracked at
    once); [class_columns] how many FSB columns are available to class
    scopes (the set-scope column is not managed here).  Both must be
    non-negative and [entries >= 1]. *)

val lookup_or_allocate : t -> cid:int -> column_busy:('a -> int -> bool) -> 'a -> int
(** Resolve [cid] to a column, allocating if needed:
    - already mapped: that column;
    - otherwise, a column with no current mapping and not
      [column_busy];
    - otherwise the overflow column (shared);
    - -1 if the table itself is full after garbage collection
      (the caller then falls back to counter / full-fence mode), or if
      there are no class columns at all.
    [column_busy x col] says whether [col] is busy; a hit allocates
    nothing. *)

val cid_of_column : t -> column:int -> int
(** The newest cid mapped to [column], or -1 — the reverse lookup the
    profiler uses to attribute a fence's stall to the scope it was
    decoded under (columns can be shared under overflow, so "newest"
    is the decode-time answer). *)

val mappings : t -> (int * int) list
(** Current (cid, column) pairs, for tests. *)

val set_mappings : t -> (int * int) list -> unit
(** Overwrite the table with (cid, column) pairs, newest first — the
    inverse of {!mappings}, for checkpoint restore. *)
