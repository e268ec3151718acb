(** Random tree-pattern queries drawn from a document corpus.

    Used by the synthetic query-performance experiments (Figure 16): a
    query of length [size] is a random connected sub-pattern of a random
    document, so it is guaranteed to have at least one answer.  Optional
    generalisation replaces tags with [*], contracts edges to [//] and
    drops or keeps value leaves, exercising the full query surface. *)

type opts = {
  size : int;  (** number of pattern nodes (the paper's query length) *)
  star_prob : float;  (** probability of generalising a tag to [*] *)
  desc_prob : float;
      (** probability of contracting a non-root node into a [//] edge *)
  value_prob : float;  (** probability of keeping a value leaf *)
  wide : bool;
      (** grow the sub-pattern breadth-first, yielding bushy twigs — the
          branching queries that stress identical-sibling handling *)
}

val default_opts : opts

val generate :
  ?seed:int -> opts:opts -> Xmlcore.Xml_tree.t array -> int -> Xquery.Pattern.t list
(** [generate ~opts docs n] draws [n] patterns.  Deterministic in
    (seed, opts, docs). *)

(** One exact (no wildcard) random sub-pattern of a single document. *)
