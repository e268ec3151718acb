(** Fixed-length vectors of 32-bit signed integers.

    Four bytes an element in one [Bytes] buffer on the OCaml heap: half
    the words of an [int array], and, unlike a bigarray, counted by
    [Obj.reachable_words].  Elements go in and come out as [int]; reading
    one allocates nothing.  The byte order is the machine's: a vector is
    an in-memory structure, never a file format. *)

type t

val min_value : int
(** [-2^31]. *)

val max_value : int
(** [2^31 - 1]. *)

val fits : int -> bool
(** Whether [x] lies in [[-2^31, 2^31 - 1]]. *)

val make : int -> int -> t
(** [make n x] is [n] copies of [x].
    @raise Invalid_argument if [x] does not fit or [n] is negative. *)

val length : t -> int

val get : t -> int -> int
(** @raise Invalid_argument out of bounds. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument out of bounds, or if the value does not
    fit. *)

external get32 : t -> int -> int32 = "%caml_bytes_get32"
(** [get32 v (4 * i)] is element [i] as an [int32].  {!get} and {!set}
    are function calls wherever this module is compiled opaquely (dune's
    development profile); [get32] and {!set32} are the compiler's
    primitives, so they compile inline in the caller.  For loops whose
    cost is their element accesses.
    @raise Invalid_argument if the four bytes leave the buffer. *)

external set32 : t -> int -> int32 -> unit = "%caml_bytes_set32"
(** [set32 v (4 * i) x] sets element [i] to [x], like {!get32}.
    @raise Invalid_argument if the four bytes leave the buffer. *)

val extend : t -> int -> int -> t
(** [extend v n x] is a vector of length [n >= length v] holding [v]'s
    elements, then copies of [x]. *)

val sub : t -> int -> int -> t
(** [sub v pos len] copies elements [pos .. pos + len - 1]. *)

val blit : t -> int -> t -> int -> int -> unit
(** [blit src spos dst dpos len] copies elements [spos .. spos + len - 1]
    of [src] to [dst] from [dpos], like [Bytes.blit]. *)

val of_array : int array -> t
(** @raise Invalid_argument if an element does not fit. *)

val to_array : t -> int array
