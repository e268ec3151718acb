(** Data-sampling estimation of node occurrence probabilities
    (Section 5.2: "approximate it by data sampling").

    [p̂(C|root)] is estimated as the fraction of sampled documents that
    contain at least one node with path [C].  A parent's estimate is
    therefore never smaller than a child's, which is the property the
    simple sequencing procedure of Section 2.4 relies on (ancestors come
    out first under the probability strategy).

    Statistics price the paths of one symbol table: the one they were
    counted into, fixed at construction.  Estimates for every path of the
    table are computed then, so {!p_root}, {!p_parent} and {!priority}
    only read and may be called from many domains at once.  {!set_weight}
    and {!set_tag_weight} must run on one domain, before pricing
    starts. *)

type t

val of_documents :
  ?value_mode:Sequencing.Encoder.value_mode ->
  ?symbols:Sequencing.Symtab.t ->
  Xmlcore.Xml_tree.t list ->
  t
(** Collects path document-frequencies over the sample, interning its
    paths into [symbols] (default: a fresh table). *)

val of_documents_array :
  ?value_mode:Sequencing.Encoder.value_mode ->
  ?symbols:Sequencing.Symtab.t ->
  Xmlcore.Xml_tree.t array ->
  t

val sample :
  ?value_mode:Sequencing.Encoder.value_mode ->
  ?symbols:Sequencing.Symtab.t ->
  fraction:float ->
  seed:int ->
  Xmlcore.Xml_tree.t array ->
  t
(** Estimates from a Bernoulli sample of the documents (at least one
    document is always taken): exactly the documents that
    {!sample_members} selects. *)

val sample_members : fraction:float -> seed:int -> int -> bool array
(** [sample_members ~fraction ~seed n] is the membership mask {!sample}
    draws over [n] documents, by index.  A loaded index recomputes it
    from the persisted (seed, fraction) and its record count, so its
    statistics cover the same sample without the documents. *)

val of_frequencies : Sequencing.Symtab.t -> docs:int -> int array -> t
(** Statistics from precomputed document frequencies over the paths of
    a table: [docs] documents, of which [freq.(id)] contain path [id]
    ([freq] has at most one count per path of the table).  A path with
    a zero count, or beyond the array, is treated as unseen.  The
    statistics keep their estimates and which paths were seen, not
    [freq] itself.  Used by a build, which counts as it flattens, and to
    derive the statistics of a loaded index from its document table
    instead of its records. *)

val symbols : t -> Sequencing.Symtab.t
(** The table whose paths these statistics price. *)

val doc_count : t -> int

val p_root : t -> Sequencing.Symtab.Path.t -> float
(** Estimated [p(C|root)]; unseen paths decay geometrically from their
    longest seen prefix so estimates remain deterministic and
    parent-monotone. *)

val p_parent : t -> Sequencing.Symtab.Path.t -> float
(** Estimated [p(C|parent)] = [p(C|root) / p(parent|root)] (Figure 12). *)

val set_weight : t -> Sequencing.Symtab.Path.t -> float -> unit
(** Registers the tunable weight [w(C)] of Eq. 6 for a path; weights
    default to 1. *)

val set_tag_weight : t -> string -> float -> unit
(** Applies a weight to every seen path ending in the named element — a
    convenient way to promote "frequently queried and highly selective"
    elements (Impact 2 of Section 5.1). *)

val priority : t -> Sequencing.Symtab.Path.t -> float
(** [p'(C|root) = p(C|root) × w(C)] (Eq. 6). *)

val strategy : t -> Sequencing.Strategy.t
(** The [gbest] strategy driven by {!priority}. *)

val distinct_paths : t -> int
(** Number of distinct paths observed in the sample. *)
