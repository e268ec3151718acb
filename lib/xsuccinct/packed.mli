(** Block-wise delta + varint packing of int columns with sampled skip
    pointers.

    A column of [count] ints is cut into blocks of [block] elements.
    The first element of every block is stored verbatim in a [firsts]
    table (the skip pointers: probing element [b * block] touches no
    compressed data at all, and a binary search can narrow to one block
    using only the tables).  The remaining elements are zigzag deltas
    from their predecessor, varint-coded.  A per-block byte-offset
    table makes every block independently decodable, so a paged reader
    fetches and decodes exactly the blocks a probe touches.

    Serialized layout (all fixed-width fields little-endian):

    {v
      u32 count        element count
      u32 block        elements per block
      u32 nblocks      ceil(count / block)
      u32 data_len     bytes of delta stream
      u32 * nblocks    start offset of each block in the delta stream
      i64 * nblocks    first element of each block
      data_len bytes   zigzag varint deltas
    v}

    Decoding never trusts the input: every header field, offset and
    varint is bounds-checked and inconsistencies raise
    [Invalid_argument] naming the column, mirroring the diagnostics
    contract of [Xstorage.Store.open_file]. *)

type t
(** A parsed header: tables resident, delta stream fetched on demand. *)

val encode : ?block:int -> int array -> string
(** [encode xs] serializes [xs] in blocks of [block] elements (default
    128).  Deltas wrap modulo the int width, so
    arbitrary (unsorted, full-range) values round-trip exactly; sorted
    inputs just compress better.  Raises [Invalid_argument] if [block]
    is outside [1, 2^20]. *)

val encoder :
  ?block:int -> count:int -> (int -> int) -> int * (Bytes.t -> int -> unit)
(** [encoder ~count get] serializes the column [get 0 .. get (count - 1)]
    as {!encode} would, without building it: it is the serialized size
    and a function writing exactly that many bytes into a buffer at an
    offset.  [get] is called again by the writer.  Raises
    [Invalid_argument] as {!encode} does. *)

val parse : name:string -> fetch:(int -> int -> string) -> length:int -> t
(** [parse ~name ~fetch ~length] reads and validates the header of a
    serialized column of [length] total bytes.  [fetch off len] must
    return exactly [len] bytes starting at [off] (offsets relative to
    the start of the serialized form).  Only the header and tables are
    fetched; the delta stream is left on disk.  Raises
    [Invalid_argument] (mentioning [name]) on any inconsistency,
    including a [length] that disagrees with the header. *)

val count : t -> int
val block_size : t -> int
val nblocks : t -> int

val first : t -> int -> int
(** [first t b] is element [b * block_size t] — served from the
    resident skip table, no fetch.  Raises [Invalid_argument] if [b]
    is out of range. *)

val decode_block : t -> fetch:(int -> int -> string) -> int -> int array
(** [decode_block t ~fetch b] decodes block [b] (its full element
    array, [first] included).  Fetches only that block's byte range.
    Raises [Invalid_argument] on corrupt delta bytes. *)

val decode_into :
  t -> fetch:(int -> int -> string) -> int -> (int -> int -> unit) -> unit
(** [decode_into t ~fetch b set] decodes block [b] as {!decode_block}
    does, handing element [i] of the column to [set i x] instead of
    building an array.  Raises [Invalid_argument] as {!decode_block}
    does, possibly after some elements were handed over. *)

val block_span : t -> int -> int * int
(** [block_span t b] is the offset (relative to the start of the
    serialized form, as [fetch] takes it) and the length of block [b]'s
    delta bytes: the one range {!decode_into} fetches for it.  Raises
    [Invalid_argument] if [b] is out of range. *)

val decode_span : t -> int -> string -> int array -> unit
(** [decode_span t b s dst] decodes block [b] from its delta bytes,
    which the caller has put at the front of [s] (see {!block_span}),
    into [dst.(0)] onwards; [dst] holds at least the block's elements.
    Nothing is fetched.  Raises [Invalid_argument] as {!decode_block}
    does. *)

val decode_all : t -> fetch:(int -> int -> string) -> int array
(** The whole column, decoded block by block. *)
