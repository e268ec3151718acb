(** LEB128 variable-length integers and zigzag signed mapping.

    The codecs in this library store non-negative 63-bit quantities as
    little-endian base-128 varints (7 payload bits per byte, high bit =
    continuation), at most 9 bytes per value.  Signed values go through
    the zigzag mapping first so small-magnitude deltas of either sign
    stay short.

    Decoding is fully bounds-checked: a truncated or overlong varint
    raises [Invalid_argument] naming the caller-supplied context — the
    same contract as [Xstorage.Store]'s snapshot validation. *)

val add_uvarint : Buffer.t -> int -> unit
(** [add_uvarint buf v] appends the unsigned LEB128 encoding of [v]'s
    63-bit two's-complement pattern.  Negative [v] is allowed (it
    encodes the full-width bit pattern, 9 bytes). *)

val uvarint_size : int -> int
(** Bytes {!add_uvarint} takes for [v]: 1 to 9. *)

val set_uvarint : Bytes.t -> int -> int -> int
(** [set_uvarint b pos v] writes what {!add_uvarint} appends for [v] at
    [pos] of [b] and returns the position after it.  The caller has
    room for {!uvarint_size}[ v] bytes. *)

val uvarint : name:string -> string -> pos:int ref -> limit:int -> int
(** [uvarint ~name s ~pos ~limit] decodes one varint from [s] starting
    at [!pos], advancing [pos] past it.  Bytes at or beyond [limit] are
    out of bounds.  Raises [Invalid_argument] (mentioning [name]) on
    truncation or an encoding longer than 9 bytes. *)

val zigzag : int -> int
(** Map a signed int to an unsigned-looking one: 0, -1, 1, -2, ... to
    0, 1, 2, 3, ...  Total and invertible on the full int range. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)
