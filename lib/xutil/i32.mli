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

val extend : t -> int -> int -> t
(** [extend v n x] is a vector of length [n >= length v] holding [v]'s
    elements, then copies of [x]. *)

val sub : t -> int -> int -> t
(** [sub v pos len] copies elements [pos .. pos + len - 1]. *)

val of_array : int array -> t
(** @raise Invalid_argument if an element does not fit. *)

val to_array : t -> int array
