(** Front coding (incremental encoding) of sorted string lists.

    Consecutive entries of a lexicographically sorted list share long
    prefixes — in a path trie's edge labels, almost all of them.  Each
    entry is stored as (shared-prefix length, fresh suffix), both
    varint-coded, so the dictionary costs roughly one suffix per
    distinct name instead of one full string per trie edge.

    Layout: [u32 count] then per entry [uvarint lcp, uvarint suffix_len,
    suffix bytes].  Decoding bounds-checks everything and raises
    [Invalid_argument] naming the caller's context on corrupt input. *)

val encode : Bytes.t -> Xutil.I32.t -> Xutil.I32.t -> string
(** [encode blob off order] serializes names [order.(0)], [order.(1)],
    ...: name [j] is bytes [[off.(j), off.(j + 1))] of [blob], read in
    place.  They must come sorted ([String.compare]; duplicates
    allowed).  Raises [Invalid_argument] if they are unsorted — the
    decoder could not reproduce the order-dependent prefixes — or if an
    entry names no slice of [blob]. *)

val decode : name:string -> string -> string * Xutil.I32.t
(** Inverse of {!encode}, as the names back to back in one string and
    [n + 1] offsets in a 32-bit vector: name [i] is bytes
    [[off.(i), off.(i + 1))].  No string is allocated a name.  Raises
    [Invalid_argument] (mentioning [name]) on truncated, trailing or
    inconsistent bytes. *)
