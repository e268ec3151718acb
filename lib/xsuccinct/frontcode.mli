(** Front coding (incremental encoding) of sorted string lists.

    Consecutive entries of a lexicographically sorted list share long
    prefixes — in a path trie's edge labels, almost all of them.  Each
    entry is stored as (shared-prefix length, fresh suffix), both
    varint-coded, so the dictionary costs roughly one suffix per
    distinct name instead of one full string per trie edge.

    Layout: [u32 count] then per entry [uvarint lcp, uvarint suffix_len,
    suffix bytes].

    A list is read in the form it is stored in: {!read} checks the
    coded bytes once and keeps them, with a restart point every 16
    entries — the byte offset of the bucket's second entry and its first
    name spelled out, in one small blob of heads.  A lookup
    binary-searches the heads and decodes at most 15 entries after one,
    comparing each against the key in place; nothing is spelled out but
    the heads and the one name {!name} asks for. *)

val encode : Bytes.t -> Xutil.I32.t -> Xutil.I32.t -> string
(** [encode blob off order] serializes names [order.(0)], [order.(1)],
    ...: name [j] is bytes [[off.(j), off.(j + 1))] of [blob], read in
    place.  They must come sorted ([String.compare]; duplicates
    allowed).  Raises [Invalid_argument] if they are unsorted — the
    reader could not reproduce the order-dependent prefixes — or if an
    entry names no slice of [blob]. *)

type t
(** A front-coded list held as it is coded, with its restart points.
    Read only: safe from any number of domains. *)

exception Out_of_order
(** Raised by {!read} on entries that do not ascend. *)

val read : name:string -> rank:(int -> int) -> string -> t
(** [read ~name ~rank s] checks the coded list [s] and keeps it, as it
    is, with its restart points.  Its entries must ascend strictly in
    (name, [rank]) order: names by [String.compare], and an entry that
    repeats the name before it must have a greater rank.  The reader
    keeps [rank] to order such twins in {!find}.  Allocates the heads,
    three small vectors and one scratch name as long as the longest.
    @raise Invalid_argument (mentioning [name]) on truncated, trailing
    or inconsistent bytes: a missing header, an implausible count, a
    shared prefix longer than the name before it, a suffix that
    overruns the blob, names totalling [2^31] bytes or more, or a
    malformed varint.
    @raise Out_of_order if the bytes are sound but the entries do not
    ascend; [rank] is asked only about entries whose names are equal. *)

val count : t -> int
(** Entries in the list. *)

val coded : t -> string
(** The coded bytes {!read} was given (the same string). *)

val find : t -> Bytes.t -> int -> int -> int -> int
(** [find r key off len rank] is the entry named by bytes
    [[off, off + len)] of [key] with rank [rank], or [-1].  Allocates
    nothing. *)

val name : t -> int -> string
(** [name r j] spells entry [j] out, decoded from its bucket's head.
    @raise Invalid_argument if there is no entry [j]. *)

val equal : t -> int -> Bytes.t -> int -> int -> bool
(** [equal r j key off len] is whether entry [j] is named by bytes
    [[off, off + len)] of [key]; allocates nothing.
    @raise Invalid_argument if there is no entry [j]. *)

val has_prefix : t -> int -> Bytes.t -> int -> int -> bool
(** [has_prefix r j key off len] is whether entry [j]'s name starts with
    bytes [[off, off + len)] of [key]; allocates nothing.
    @raise Invalid_argument if there is no entry [j]. *)

val prefix : Bytes.t -> int -> int -> int
(** [prefix b off len] is the first seven bytes of the name at [off]
    of [b] ([len] bytes long) as one integer, big-endian and padded
    with zero bytes: a name that sorts before another never has a
    larger prefix, so a directory of prefixes narrows a search over
    sorted names with integer comparisons. *)
