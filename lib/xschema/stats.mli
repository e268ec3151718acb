(** Data-sampling estimation of node occurrence probabilities
    (Section 5.2: "approximate it by data sampling").

    [p̂(C|root)] is estimated as the fraction of sampled documents that
    contain at least one node with path [C].  A parent's estimate is
    therefore never smaller than a child's, which is the property the
    simple sequencing procedure of Section 2.4 relies on (ancestors come
    out first under the probability strategy).

    Thread-safety: collection ({!of_documents}, {!sample}, {!set_weight},
    …) must run on a single domain.  Once collection is done, {!p_root},
    {!p_parent} and {!priority} may be called from many domains
    concurrently — the internal fallback cache for unseen paths is
    mutex-protected, so pricing is safe during parallel encoding and
    batched query compilation. *)

type t

val of_documents :
  ?value_mode:Sequencing.Encoder.value_mode -> Xmlcore.Xml_tree.t list -> t
(** Collects path document-frequencies over the sample. *)

val of_documents_array :
  ?value_mode:Sequencing.Encoder.value_mode -> Xmlcore.Xml_tree.t array -> t

val sample :
  ?value_mode:Sequencing.Encoder.value_mode ->
  fraction:float -> seed:int -> Xmlcore.Xml_tree.t array -> t
(** Estimates from a Bernoulli sample of the documents (at least one
    document is always taken): exactly the documents that
    {!sample_members} selects. *)

val sample_members : fraction:float -> seed:int -> int -> bool array
(** [sample_members ~fraction ~seed n] is the membership mask {!sample}
    draws over [n] documents, by index.  A loaded index recomputes it
    from the persisted (seed, fraction) and its record count, so its
    statistics cover the same sample without the documents. *)

val of_path_counts : docs:int -> (Sequencing.Path.t * int) array -> t
(** Statistics from precomputed document frequencies: [docs] documents,
    of which [n] contain path [p] for each [(p, n)].  Paths with a zero
    count are treated as unseen.  Used to derive the statistics of a
    loaded index from its document table instead of its records. *)

val doc_count : t -> int

val p_root : t -> Sequencing.Path.t -> float
(** Estimated [p(C|root)]; unseen paths decay geometrically from their
    longest seen prefix so estimates remain deterministic and
    parent-monotone. *)

val p_parent : t -> Sequencing.Path.t -> float
(** Estimated [p(C|parent)] = [p(C|root) / p(parent|root)] (Figure 12). *)

val set_weight : t -> Sequencing.Path.t -> float -> unit
(** Registers the tunable weight [w(C)] of Eq. 6 for a path; weights
    default to 1. *)

val set_tag_weight : t -> Xmlcore.Designator.t -> float -> unit
(** Applies a weight to every known path ending in the given designator —
    a convenient way to promote "frequently queried and highly selective"
    elements (Impact 2 of Section 5.1). *)

val priority : t -> Sequencing.Path.t -> float
(** [p'(C|root) = p(C|root) × w(C)] (Eq. 6). *)

val strategy : t -> Sequencing.Strategy.t
(** The [gbest] strategy driven by {!priority}. *)

val distinct_paths : t -> int
(** Number of distinct paths observed in the sample. *)
