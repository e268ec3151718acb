(** Constraint subsequence matching over the labelled index
    (Section 4.2, Algorithm 1).

    The matcher walks a compiled query sequence down the trie: candidates
    for element [i] are found by binary search in its horizontal path
    link, restricted to the (pre, post] range of the previously matched
    node.  In {!Constraint} mode every candidate additionally passes the
    forward-prefix check — its nearest same-encoding-as-parent ancestor
    must be exactly the node matched to its pattern parent — which is the
    exact form of Definition 3's second criterion and subsumes the
    sibling-cover test (Definition 4, Theorem 3).  The check is skipped
    when the parent's entry has no same-encoding descendant, mirroring
    Algorithm 1's [ins] set.

    {!Naive} mode omits the check and reproduces the false alarms of
    Figure 4 (it is what the ViST baseline pairs with per-document
    verification).

    Every link-entry and document-table probe is counted in [stats];
    the pages those probes read are counted by the columns' own
    {!Xstorage.Store} (see {!Xstorage.Store.page_reads}).

    {2 Thread-safety}

    The index itself is read-only and may be shared across domains, but a
    [stats] record is a single-domain mutable accumulator: each
    concurrent worker must own a private instance and the owners' results
    can be combined afterwards with {!merge_stats}.  [Xseq.query_batch]
    follows exactly this per-worker-then-merge discipline. *)

type mode = Constraint | Naive

type stats = {
  mutable probes : int;  (** link entries examined (binary search + scans) *)
  mutable candidates : int;  (** range candidates considered *)
  mutable rejected : int;  (** candidates failing the forward-prefix check *)
  mutable matches : int;  (** complete query-sequence matches *)
}

val create_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** [merge_stats ~into s] adds every counter of [s] into [into].  Used to
    combine the private per-worker records of a batched run into one
    aggregate; [s] is left unchanged. *)

val run :
  ?mode:mode ->
  ?stats:stats ->
  Xindex.Labeled.t ->
  Query_seq.compiled ->
  on_doc:(int -> unit) ->
  unit
(** Calls [on_doc] for every matching document id; a document may be
    reported more than once across search branches — callers deduplicate
    (see {!run_collect}). *)

val run_collect :
  ?mode:mode ->
  ?stats:stats ->
  Xindex.Labeled.t ->
  Query_seq.compiled list ->
  int list
(** Union of matches over several compiled sequences, sorted,
    deduplicated. *)
