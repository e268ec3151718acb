(** Word and name dictionaries backing the DBLP-like and XMark-like
    generators (the paper's real datasets are unavailable offline, so the
    generators synthesise statistically similar records). *)

val first_names : string array
val last_names : string array
val words : string array
(** Lowercase English words for titles and descriptions. *)

val cities : string array
val countries : string array
(** Includes ["United States"], which XMark makes frequent. *)

val journals : string array
val conferences : string array
val categories : string array

val pick : Random.State.t -> string array -> string
(** Uniform choice. *)

val pick_zipf : Random.State.t -> ?s:float -> string array -> string
(** Zipf-distributed choice (exponent [s], default 1.0): early entries are
    chosen far more often — the skew typical of author and venue
    frequencies. *)

val zipf_index : Random.State.t -> ?s:float -> int -> int
(** A Zipf-distributed index in [0, n). *)
