(** Query sequencing: concrete patterns → query sequences (Section 3.1).

    A concrete pattern is sequenced by exactly the same scheduler as the
    documents, so a structure match is always witnessed by a subsequence
    match (completeness).  Because identical sibling subtrees of the
    {e query} may embed into the document's identical siblings in either
    order, each same-path sibling group is expanded into all its distinct
    permutations and the per-permutation results unioned — the paper's
    remedy for false dismissals (Section 3.3).

    Besides the path of every query element, the compiled form records
    each element's pattern parent, which the matcher's forward-prefix
    check needs (the sequence parent can be levels above across a [//]
    edge). *)

type compiled = {
  paths : Sequencing.Symtab.Path.t array;
  parents : int array;
      (** [parents.(i)] is the sequence position of element [i]'s pattern
          parent, or -1 for the pattern root. *)
}

exception Unsupported_strategy of string

val compile :
  ?max_expansions:int ->
  ?flagged:(Sequencing.Symtab.Path.t -> bool) ->
  strategy:Sequencing.Strategy.t ->
  Sequencing.Symtab.t ->
  Instantiate.cnode ->
  compiled list
(** All query sequences of one concrete pattern over the paths of a
    table (one per distinct identical-sibling arrangement,
    deduplicated).  [max_expansions]
    (default 256) bounds the number of variants; each is charged as it is
    generated, so a query over the budget raises
    {!Instantiate.Too_many} as soon as the count passes it, not after
    enumerating every permutation.

    [flagged] must be the index's {!Xindex.Labeled.path_multiple}: query
    elements whose path is duplicated somewhere in the data trigger the
    same subtree-contiguity rule that document encoding applies (see
    {!Sequencing.Encoder.encode}'s [ident]), and branches reaching through
    a flagged step are expanded over the possible block assignments
    (junction normalisation); otherwise query order and data order diverge
    and valid matches are missed.  The default treats {e every} path as
    flagged, which is sound but generates more variants than necessary —
    always pass the index's flag in production use.

    Supported strategies: [Probability] (the CS index), [Depth_first] and
    [Breadth_first] (against tag-sorted documents).
    @raise Unsupported_strategy for [Random] — random sequences cannot be
    aligned with query sequences, so a random-strategy index supports
    size measurement but not querying (the paper only sizes it either). *)

