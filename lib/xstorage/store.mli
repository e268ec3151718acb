(** Columnar flat-buffer storage engine.

    One format for memory and disk, and the only place page I/O is
    counted: an index is a bag of named {e regions} — typed int columns
    (delta-packed on disk) and byte blobs — laid out page-aligned.  The
    same column handle serves two physical representations:

    - {b Flat}: an unboxed [int32] [Bigarray] buffer outside the OCaml
      heap — cache-friendly structure-of-arrays at four bytes an
      element.  Every value an index stores (labels, serials, ids) fits
      in 32 bits; a flat column refuses one that does not.  A
      [Resident] store decodes a file's packed column straight into one
      as the region streams in;
    - {b Packed}: a delta+varint compressed column ([Xsuccinct.Packed])
      of a [Paged] store, probed in compressed form — resident skip
      tables, blocks decoded on demand through a small lock-free cache,
      block bytes read straight off disk through a real buffer pool
      (page cache + {!Lru} eviction), so queries run without
      materialising the column.

    A built index's columns are flat, and so are the columns a
    [Resident] store reads from a file.

    {2 xseqcol2 (version 1, the one container)}

    {v
    offset  size  field
    0       8     magic "xseqcol2"
    8       4     version (u32 LE) = 1
    12      4     page size (u32 LE, multiple of 8)
    16      4     region count (u32 LE)
    20      4     payload offset (u32 LE, page-aligned)
    24      8     file length (u64 LE) — total bytes, truncation check
    32      8     header checksum (FNV-1a 64 over [0,32) ++ [40,payload))
    40      64×k  table of contents, one fixed-width entry per region:
                    name     32 bytes (u8 length + bytes, zero padded)
                    kind     4 bytes (u8: 1 = raw blob, 2 = packed
                             ints, 3 = LZ-coded blob; zero padded)
                    stored   u32 LE (stored bytes of a kind 2 or 3
                             region; 0 or the raw length for kind 1)
                    offset   u64 LE (absolute, page-aligned)
                    count    u64 LE (elements for ints, bytes for blob)
                    checksum u64 LE (FNV-1a 64 of the padded region bytes)
            ...   zero padding to the payload offset
    payload ...   regions, each page-aligned and zero-padded to a page
                  boundary
    v}

    Packed int columns are block-wise delta + varint with sampled skip
    pointers ([Xsuccinct.Packed]); LZ-coded blobs are [Xsuccinct.Lz].
    {!write} packs every int region and keeps blobs raw unless asked to
    LZ-code them, which it does where that wins.  Every byte of the file
    is covered by a checksum (header + per-region), over the {e stored}
    bytes, so bit flips and truncations are detected at {!open_file}
    and reported as [Invalid_argument] with the failing part named —
    never decoded as garbage.  An xseqcol1 file, the container of older
    builds, is refused with a diagnostic naming the rebuild
    ({!rebuild_remedy}).

    A [Paged] store leaves a packed column's delta bytes on disk behind
    the buffer pool, so the resident cost of a column is its skip
    tables plus the decoded-block cache.  A probe that finds its block
    decoded takes no lock; a block fetch through the pool does.

    {2 What an open file store holds}

    An open file store keeps its table of contents, its file descriptor
    and, in [Paged] mode, the handles of its int columns — nothing else.
    {!open_file} streams every region once to check its checksum and
    keeps none of the bytes.  {!blob}, and {!ints} on a [Resident]
    store, read the region from the file when called, check its
    checksum again and hand the result to the caller, who decides what
    stays in memory.  A [~deferred:true] open leaves that first check to
    the region's first read, or to {!check_unread}, so a load that reads
    every region hashes each byte once.  The descriptor lives as long as
    the store: {!close} releases it, or a finaliser once the store and
    every column handle it gave out are unreachable.  A store whose file
    was unlinked or replaced after the open therefore still reads its
    own regions.

    {2 Buffer-pool discipline}

    The file backend reads whole pages ({!open_file}'s [page_size] is
    fixed at write time), caches up to [pool_pages] of them under LRU
    eviction, and counts hits and misses ({!page_reads} / {!page_hits}):
    a block fetch requests each page its bytes span once.  Page fetches
    are serialised by a mutex, so a paged store may be shared across
    domains (reads are otherwise pure). *)

type column
(** A handle to an int column, independent of its physical backing. *)

val flat_of_array : int array -> column
(** Copies into a fresh unboxed 32-bit flat buffer.
    @raise Invalid_argument if an element does not fit in 32 bits. *)

val get : column -> int -> int
(** [get c i] is element [i].  @raise Invalid_argument out of bounds. *)

val length : column -> int

val scan : column -> ((int -> int) -> 'a) -> 'a
(** [scan c f] is [f get], where [get i] is [Store.get c i] for an [f]
    that reads [c] at nondecreasing indices.  A compressed column then
    decodes each block it fetches once, into one of a few buffers
    reused across the walk (one per decoded-block cache slot): the same
    fetches and page reads as {!get}, without a fresh array per block,
    and the decoded-block cache is left as those reads would leave it.
    Reading backwards is not an error, but may decode a block again. *)

val to_array : column -> int array
(** Materialises the column (decodes a paged column in full). *)

val off_heap_bytes : column -> int
(** Bytes the column keeps outside the OCaml heap: four an element for a
    flat buffer, 0 for a paged column. *)

(** {1 Stores} *)

type t
(** An open store: named regions.  Memory stores are built region by
    region and written with {!write}; file stores come from
    {!open_file}. *)

val memory : unit -> t
(** An empty in-memory store. *)

val add_ints : t -> string -> column -> unit
(** Registers an int column region.  Region names are unique, at most 31
    bytes.  @raise Invalid_argument on duplicates or oversized names. *)

val add_int_array : t -> string -> int array -> unit
(** Registers an int region staged as a plain array, kept without a copy
    (the caller must not mutate it afterwards): the small regions a save
    assembles, whose values may need more than 32 bits.  {!write} picks
    the element width from the values, as for any column.
    @raise Invalid_argument as {!add_ints} does. *)

val add_blob : t -> string -> string -> unit
(** Registers a raw byte region. *)

val ints : t -> string -> column
(** Looks a column region up by name.  A memory store hands back the
    column it was given, or a staged array copied into a fresh flat
    buffer; a [Paged] file store hands back its compressed handle.  A
    [Resident] file store reads the region from the file on every call,
    checks its checksum and returns a fresh 32-bit flat buffer, decoded
    as the region streams in, that the store does not keep.
    @raise Invalid_argument if absent or a blob, and, for a region read
    from the file, on a checksum mismatch, a corrupt packed column, a
    short read or a closed store: a damaged region reads as its
    checksum mismatch, whatever its bytes decode to.  An element that
    does not fit in 32 bits fails the read with ["Store: inconsistent
    snapshot: region ..."], a staged array element that does not fit
    fails as {!flat_of_array} does. *)

val int_array : t -> string -> int array
(** The elements of a column region, in a fresh OCaml array.  A
    [Resident] file store decodes the region from the file straight
    into the array as it streams in (no intermediate column); other
    stores copy the column {!ints} returns.
    @raise Invalid_argument as {!ints} does. *)

val i32 : t -> string -> Xutil.I32.t
(** The elements of a column region in a fresh 32-bit vector, decoded
    straight into it as a [Resident] file store's region streams in, a
    chunk at a time; other stores walk the column {!ints} returns.  An element beyond 32
    bits saturates at [Xutil.I32.max_value] or [Xutil.I32.min_value], so
    a caller that range-checks the values rejects it as it would the
    value itself.
    @raise Invalid_argument as {!ints} does, but never for a wide
    element. *)

val bytes : t -> string -> (int -> char) -> Bytes.t
(** [bytes t name f] is the elements of a column region mapped by [f],
    one byte each, decoded straight into the bytes as {!i32} decodes.
    @raise Invalid_argument as {!ints} does, but never for a wide
    element. *)

val blob : t -> string -> string
(** Looks a blob region up by name.  A file store reads it from the file
    on every call, in either mode, checks its checksum and decompresses
    it; the store keeps no copy.
    @raise Invalid_argument if absent or an int column, and, for a file
    store, on a checksum mismatch, a corrupt compressed payload, a short
    read or a closed store. *)

val mem : t -> string -> bool

(** {1 Persistence} *)

val rebuild_remedy : string
(** The remedy every refusal of a file of older builds names: rebuilding
    it from its records ([xseq index RECORDS.xml]). *)

val write : ?page_size:int -> ?compress:bool -> t -> string -> unit
(** [write t path] serialises every region to [path] as xseqcol2: every
    int region delta-packed, every blob raw or, with [~compress:true],
    LZ-coded where that is smaller.  [page_size] defaults to 1024 and
    must be a positive multiple of 8. *)

type mode =
  | Resident
      (** {!ints} reads a region into a 32-bit flat buffer when
          called *)
  | Paged
      (** leave the file's packed int columns on disk behind the
          buffer pool *)

val open_file : ?mode:mode -> ?pool_pages:int -> ?deferred:bool -> string -> t
(** [open_file path] validates the header and table of contents, streams
    every region once to check its checksum, and returns the store.
    [mode] defaults to [Resident].  [pool_pages] (default 256) bounds the
    paged backend's buffer pool.  With [~deferred:true] the open checks
    only the int regions of a [Paged] store (their probes never check):
    each other region is checked by its first read, before any of its
    bytes is used, and {!check_unread} checks the ones no read did.

    @raise Invalid_argument naming the failure: bad magic, unsupported
    version, header or region checksum mismatch, truncated file,
    malformed table of contents; and for an xseqcol1 file, naming the
    rebuild ({!rebuild_remedy}). *)

val check_unread : t -> unit
(** Streams and checks every region of a file store that no read has
    checked since the open, so that with a [~deferred:true] open a
    flipped byte in a region nobody reads still fails.  A no-op for a
    memory store and after a full open.
    @raise Invalid_argument ["Store.open_file: region ... checksum
    mismatch"], or on a short read or a closed store. *)

(** {1 Introspection} *)

type region_info = {
  r_name : string;
  r_kind : [ `Ints | `Blob ];
  r_count : int;  (** elements for ints, bytes for blobs *)
  r_bytes : int;
      (** logical (uncompressed) payload bytes: 8 an int element *)
  r_stored : int;
      (** bytes actually stored before page padding; equals [r_bytes]
          for uncompressed regions *)
  r_offset : int;  (** byte offset in the file; -1 for memory stores *)
  r_pages : int;  (** pages the padded region occupies *)
}

val regions : t -> region_info list
(** In registration (= file TOC) order. *)

val page_size : t -> int

val file_bytes : t -> int
(** Total serialised size: actual file size for file stores, the exact
    size {!write} would produce (plain, default page size) for memory
    stores. *)

val page_reads : t -> int
(** Pages fetched from disk by the paged backend (buffer-pool misses)
    since open; 0 for memory/resident stores. *)

val page_hits : t -> int
(** Buffer-pool hits since open. *)

val pool_capacity : t -> int
(** Buffer-pool capacity in pages; 0 for memory/resident stores. *)

val drop_pool : t -> unit
(** Empties the buffer pool — cached pages, LRU residency and the
    decoded-block caches of paged compressed columns — so the next probe
    of every page reads it from disk again: a cold restart.  The
    {!page_reads} / {!page_hits} counters keep counting.  A no-op for
    memory and resident stores.  Safe to call while other domains
    query. *)

val close : t -> unit
(** Closes the underlying file, if any.  Further paged reads, and reads
    of regions from the file, raise.  Columns a [Resident] store handed
    out stay usable. *)

val checksum_bytes : Bytes.t -> int -> int -> int64
(** FNV-1a 64 over [len] bytes at [off] — exposed for tests. *)

val checksum_string : string -> int -> int -> int64
(** Same hash over an immutable string — shared with the [Xlog] WAL codec
    so every durable byte in the system uses one checksum. *)
