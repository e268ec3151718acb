(** The end-to-end query pipeline: pattern → instantiation → query
    sequences → constraint subsequence matching → document ids.

    This is the paper's query interface, {e Tree Pattern → P(Doc Ids)},
    with no join operations and no per-document post-processing: wildcard
    instantiation and isomorphism expansion happen against schema-sized
    structures (the path trie and the pattern itself), and each compiled
    sequence is answered holistically by {!Matcher}. *)

val query :
  ?mode:Matcher.mode ->
  ?stats:Matcher.stats ->
  ?limit:int ->
  ?max_expansions:int ->
  strategy:Sequencing.Strategy.t ->
  value_mode:Sequencing.Encoder.value_mode ->
  Xindex.Labeled.t ->
  Pattern.t ->
  int list
(** Sorted, deduplicated ids of the documents containing the pattern.
    [strategy] and [value_mode] must be the ones the index was built
    with.  @raise Instantiate.Too_many, Instantiate.Unsupported,
    Query_seq.Unsupported_strategy as documented in those modules. *)

val compile :
  ?limit:int ->
  ?max_expansions:int ->
  strategy:Sequencing.Strategy.t ->
  value_mode:Sequencing.Encoder.value_mode ->
  Xindex.Labeled.t ->
  Pattern.t ->
  Query_seq.compiled list
(** The compiled sequences only (for inspection or repeated execution). *)

type explanation = {
  pattern : string;  (** the pattern as parsed *)
  instantiations : int;  (** concrete patterns after wildcard expansion *)
  sequences : int;  (** compiled sequences after isomorphism expansion *)
  sequence_texts : string list;  (** each compiled sequence, rendered *)
  results : int;
  stats : Matcher.stats;  (** probes/candidates/rejections over the run *)
}

val explain :
  ?mode:Matcher.mode ->
  ?limit:int ->
  ?max_expansions:int ->
  strategy:Sequencing.Strategy.t ->
  value_mode:Sequencing.Encoder.value_mode ->
  Xindex.Labeled.t ->
  Pattern.t ->
  explanation
(** Runs the query and reports what the pipeline did — how many concrete
    patterns the wildcards expanded to, how many sequences the
    identical-sibling/junction expansion produced, and the matcher's
    work counters.  Intended for debugging and teaching. *)
