(** Binary searches over sorted int arrays (ascending, duplicates allowed). *)

val lower_bound : int array -> len:int -> int -> int
(** [lower_bound a ~len x] is the smallest index [i < len] with
    [a.(i) >= x], or [len]. *)

val upper_bound : int array -> len:int -> int -> int
(** Smallest index [i < len] with [a.(i) > x], or [len]. *)
