(** Schema trees with existence probabilities (Section 5.2, Figures 12–13).

    A schema node records [p(C|P)] — the probability that child [C] exists
    given its parent [P] — and, for value slots, the distribution of the
    value itself.  [p(C|root)] is the product of the probabilities along
    the path (Figure 13), and the weighted probability
    [p'(C|root) = p(C|root) × w(C)] (Eq. 6) drives the [gbest] strategy. *)

type t = {
  tag : string;
  exist : float;  (** [p(node | parent)]; the root must have [exist = 1.] *)
  weight : float;  (** [w(C)]: query frequency × selectivity knob, default 1 *)
  value : value option;  (** distribution of the value leaf under this node *)
  children : t list;
}

and value = {
  cardinality : int;
      (** size of the value domain; individual values are assumed uniform
          unless listed in [known] (the paper's "range and distribution of
          the values" factor). *)
  known : (string * float) list;
      (** explicitly weighted values, probabilities within [0,1]. *)
}

val node : ?exist:float -> ?weight:float -> ?value:value -> string -> t list -> t
(** Convenience constructor; [exist] defaults to 1. *)

val uniform_values : int -> value
(** [uniform_values k] is a domain of [k] equiprobable values. *)

val p_root :
  t -> Sequencing.Symtab.t -> (Sequencing.Symtab.Path.t * float) list
(** All concrete element paths of the schema, interned into the table,
    with their [p(C|root)] (Figure 13).  Value designator paths are
    included for [known] values only (with probability [exist × p(v)]);
    anonymous domain values contribute through {!to_priority}'s
    fallback. *)

val to_priority :
  t -> Sequencing.Symtab.t -> Sequencing.Symtab.Path.t -> float
(** The [gbest] priority function over the paths of a table, priced by
    their names: [p'(C|root)] for schema paths;
    unknown-value paths under a value slot get
    [p(slot|root) / cardinality]; paths outside the schema decay
    geometrically from their longest known prefix, so priorities stay
    consistent between data and query sequencing. *)

val strategy : t -> Sequencing.Symtab.t -> Sequencing.Strategy.t
(** [Probability (to_priority t symbols)]: pass it as
    [Xseq.Custom (Schema.strategy schema)], and each index applies it to
    its own table. *)
