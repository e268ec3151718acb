(** LRU eviction policy over integer page ids — the recency machinery of
    {!Store}'s buffer pool.  The LRU tracks {e which} pages are resident;
    an optional [on_evict] callback lets the owner drop the evicted
    page's buffer.

    Thread-safety: none.  {!Store} calls it under its pool mutex. *)

type t

val create : ?on_evict:(int -> unit) -> int -> t
(** [create ~on_evict capacity] makes an empty pool.  [capacity <= 0]
    disables residency tracking entirely ({!access} always returns
    [false]).  [on_evict page] fires exactly when [page] leaves the pool
    to make room for another. *)

val access : t -> int -> bool
(** Records an access; returns [true] iff the page was already resident.
    A non-resident page is inserted (evicting the least recently used
    page when at capacity). *)

val mem : t -> int -> bool
(** Whether a page is currently resident (no recency update). *)

val capacity : t -> int
val size : t -> int

val clear : t -> unit
(** Empties the pool {e without} firing [on_evict]. *)
