(** xseq — sequence-based XML indexing with performance-oriented
    constraint sequencing (Wang & Meng, ICDE 2005).

    Quickstart:
    {[
      let docs = Array.map Xmlcore.Xml_parser.parse_string raw_documents in
      let index = Xseq.build docs in
      let ids = Xseq.query_xpath index "/site//item[location='US']" in
      ...
    ]}

    [build] sequences every document with the probability-based strategy
    [gbest] (estimated by sampling the documents themselves), sorts the
    sequences and labels the trie they spell, and answers tree-pattern queries
    holistically through constraint subsequence matching — no structural
    joins, no per-document post-processing, no false alarms. *)

module Pattern = Xquery.Pattern
module Xpath = Xquery.Xpath_parser

type sequencing =
  | Depth_first of { canonical : bool }
      (** Pre-order.  With [canonical = true] (required for querying)
          documents are tag-sorted first; [false] is the paper-faithful
          document order used in the index-size experiments. *)
  | Breadth_first of { canonical : bool }
  | Random of int  (** seed; size experiments only — queries raise *)
  | Probability
      (** [gbest] with probabilities sampled from the indexed documents
          (the default). *)
  | Probability_weighted of
      (Sequencing.Symtab.t -> Sequencing.Symtab.Path.t -> float)
      (** [gbest] with explicit weights [w(C)] (Eq. 6) multiplied into the
          sampled probabilities.  The function is applied to the index's
          symbol table once, then prices that table's paths. *)
  | Custom of (Sequencing.Symtab.t -> Sequencing.Strategy.t)
      (** Caller-supplied strategy for the paths of the index's symbol
          table (e.g. [Custom (Xschema.Schema.strategy schema)]), used for
          both documents and queries. *)

type config = {
  sequencing : sequencing;
  value_mode : Sequencing.Encoder.value_mode;
  sample_fraction : float;
      (** fraction of documents sampled for probability estimation
          (default 1.0) *)
  sample_seed : int;
}

val default_config : config

type t

val build :
  ?domains:int ->
  ?pool:Xutil.Domain_pool.t ->
  ?on_phase:(string -> float -> unit) ->
  ?config:config ->
  Xmlcore.Xml_tree.t array ->
  t
(** Builds an index over the documents; ids are array indices.

    The build runs four phases (DESIGN.md §9):
    - ["flatten+intern"]: one walk per record interns its designators
      and paths into the index's own symbol table and keeps the record's
      flat pre-order form.  For a sampled probability model the sampled
      records are walked first, then the rest.
    - ["counts"]: one pass over each flat record's paths, with per-path
      arrays.  It yields the document frequencies of the [gbest]
      statistics and the global identical-sibling flags (paths some
      record contains twice).  Then each path's priority is computed
      once.
    - ["encode"]: the constraint sequence of every record, from its
      flat form, and the record's sibling-order exceptions
      ({!Sequencing.Encoder.sequence_ordered}).  Canonical modes
      sequence the tag-sorted records instead, flattened in tag order
      straight from the records, with the exceptions taken against the
      records themselves.
    - ["sort+label"]: the sequences are sorted and labelled in one sweep
      ({!Xindex.Labeled.build}).

    [on_phase] is called with each phase's name and wall-clock seconds
    as it ends; it changes nothing about the result.

    With [~domains:n] (or an existing [~pool]) the encoding phase is
    chunked across [n] worker domains.  The result is {e
    label-identical} to the sequential build for every sequencing
    strategy: only the sequential first phase writes the symbol table,
    the parallel phase only reads it, and the sorted labelling is
    insertion-order independent — see DESIGN.md, "Parallel
    construction".  The result depends only on [config] and [docs], not
    on any other index of the process.  The default [domains = 1] spawns no
    domains and is the sequential code path.

    The index keeps no records: {!document} rebuilds them from the
    index. *)

val query : ?stats:Xquery.Matcher.stats -> t -> Pattern.t -> int list
(** Ids of the documents containing the pattern, sorted.  Queries whose
    wildcard instantiation or isomorphism expansion would explode fall
    back to an exact linear scan of the records (so answers are never
    wrong and never lost), which the first such query rebuilds from the
    index as {!document} does.
    @raise Xquery.Query_seq.Unsupported_strategy for a {!Random} index. *)

val query_xpath : ?stats:Xquery.Matcher.stats -> t -> string -> int list
(** Parses the XPath fragment and runs {!query}. *)

(** {1 Batched execution}

    Many queries against one frozen index, executed concurrently.  The
    labelled index and its symbol table are strictly read-only after
    construction (query compilation only looks names up), so workers
    share [t] directly; each worker owns a private
    {!Xquery.Matcher.stats} record, merged once the batch completes. *)

val query_batch :
  ?domains:int ->
  ?pool:Xutil.Domain_pool.t ->
  ?stats:Xquery.Matcher.stats ->
  t ->
  Pattern.t array ->
  int list array
(** [query_batch ~domains t patterns] answers every pattern, with the
    patterns chunked across [domains] worker domains (default 1 =
    sequential; pass [~pool] to reuse a pool).  Result [i] is exactly
    [query t patterns.(i)] — same ids, same order, same fallback
    behaviour — for any number of domains.  When [stats] is supplied each
    query's counters are {!Xquery.Matcher.merge_stats}'d into it, so
    totals match a sequential run over the same patterns.
    @raise Xquery.Query_seq.Unsupported_strategy for a {!Random} index
    (the whole batch fails, like the equivalent sequential loop). *)

type prepared
(** A compiled query: wildcard instantiation and sequence expansion done
    once, reusable across executions (and what the benchmarks amortise).
    A prepared query is stamped with the {!generation} of the index it
    was compiled for. *)

val prepare : t -> Pattern.t -> prepared
(** Compiles the pattern against this index.
    @raise Xquery.Instantiate.Too_many when expansion explodes —
    {!query}'s scan fallback does not apply to prepared queries. *)

val run_prepared : ?stats:Xquery.Matcher.stats -> t -> prepared -> int list
(** Executes a prepared query.  The index must be the one it was prepared
    against: the compiled sequences embed that index's label ranges, so
    [run_prepared] checks the generation stamp and raises
    [Invalid_argument] on a mismatch instead of returning garbage ids.
    [Xserver]'s plan cache leans on this check to invalidate cached plans
    across [Reload] hot swaps. *)

val generation : t -> int
(** A process-unique stamp distinguishing this index from every other
    index constructed (built, loaded or rebuilt) in the same process.
    Monotonically increasing; never reused. *)

val next_generation : unit -> int
(** Allocates a stamp from the same process-wide sequence as index
    generations.  [Xlog] stamps its merged base+delta views with these,
    so one namespace covers every plan-cache key regardless of whether
    the plan was compiled against a frozen index or a live store. *)

val explain : t -> Pattern.t -> Xquery.Engine.explanation
(** Runs the query and reports the pipeline's work: wildcard
    instantiations, sequence expansions, matcher counters
    (see {!Xquery.Engine.explain}). *)

val document : t -> int -> Xmlcore.Xml_tree.t
(** The original document, rebuilt from the index by Theorem 1 and
    [T.equal] to the record the build was given, under every strategy
    and value mode.  The first call (or the first scan fallback of
    {!query}) decodes every document and keeps the trees, once, however
    many domains race for them: one O(n) sweep inverts the links
    ({!Xindex.Labeled.sequences}), one {!Sequencing.Decoder.decoder}
    turns each document's chain into its tree, and the stored
    sibling-order exceptions put siblings back in their order.
    @raise Invalid_argument for an unknown id, or naming the
    inconsistency of a damaged index. *)

val doc_count : t -> int

val node_count : t -> int
(** Index trie nodes — the quantity plotted in Figure 14. *)

val distinct_paths : t -> int

val size_bytes : t -> int
(** The paper's [4n + cN] disk-size estimate (Section 6.2). *)

val strategy : t -> Sequencing.Strategy.t
val value_mode : t -> Sequencing.Encoder.value_mode
val labeled : t -> Xindex.Labeled.t
(** The underlying labelled index, for low-level experimentation. *)

val symbols : t -> Sequencing.Symtab.t
(** The index's symbol table ({!Xindex.Labeled.symbols}): the paths its
    sequences, statistics and compiled queries are made of. *)

val average_sequence_length : t -> float

val stats : t -> Xschema.Stats.t option
(** The sampled statistics (present for [Probability*] sequencing).  A
    loaded index derives them from its document table rather than its
    records; they equal the ones the build counted. *)

(** {1 Persistence}

    An index saves to a columnar {!Xstorage.Store} snapshot: the labelled
    trie as flat int-column regions, the records' sibling-order
    exceptions as one int region ([sibling_order], empty when every
    record's siblings come out in sequence order), and a small metadata
    region recording how the probability model was derived (so the
    strategy is deterministically recomputed on load).  One snapshot
    version is written and read, version 5: it holds no record region,
    since the index determines its records (Theorem 1), and no link
    region the index can derive (see
    {!Xindex.Labeled.add_to_store}).  A file of any other version is
    refused (see {!load}).  Nothing is marshalled — every region is
    checksummed and decoded through bounds-checked readers, so a
    corrupt, truncated or foreign file is rejected with a diagnostic
    naming the failure.

    Every snapshot is written as xseqcol2 and opens resident or, with
    [~mode:Paged], answers queries straight off disk: its packed index
    columns stay in the file and their blocks are read page by page
    through the store's buffer pool. *)

val save : ?compress:bool -> t -> string -> unit
(** [save t path] writes the index to [path] as an xseqcol2
    {!Xstorage.Store} file: delta+varint label columns and a compact
    front-coded path dictionary, on 1 KiB pages.  [compress] (default
    [false]) also LZ-codes the designator names: a smaller file that is
    slower to write.  Either loads through {!load}, resident or paged.
    The file is snapshot version 5 and holds no records.
    @raise Invalid_argument for indexes built with a
    [Custom]/[Probability_weighted] strategy (closures cannot be
    persisted). *)

val built_under : t -> config -> bool
(** Whether the index's labels are the ones a build under [config] would
    give: same sequencing, value mode and sampling.  A loaded index compares
    the configuration its snapshot recorded.  [false] whenever either
    side uses a [Custom] or [Probability_weighted] strategy, whose
    closures cannot be compared. *)

val check_version : int -> unit
(** [check_version v] refuses every snapshot version but the one
    {!save} writes and {!load} reads, with the diagnostic {!load} gives.
    @raise Invalid_argument naming [v] and the rebuild from the records
    ([xseq index RECORDS.xml]). *)

val load : ?mode:Xstorage.Store.mode -> ?pool_pages:int -> string -> t
(** [load path] restores a saved index; queries answer exactly as on the
    original.  [mode] (default [Resident]) reads the label columns and
    the document table into 32-bit flat buffers, decoding packed columns
    as they stream in; [Paged] leaves an xseqcol2 snapshot's columns on
    disk behind a buffer pool of [pool_pages] pages (default 256).  Every
    region checksum is checked once: by the read that
    first uses the region, before any of its bytes is used, or at the
    end of the load for a region the load does not read (paged columns
    at the open).

    The index's symbol table is the snapshot's dictionary and the
    [gbest] statistics are derived from the document table.  A
    snapshot holds no records, and the load decodes none: {!document}
    rebuilds them from the index on its first call.  Its
    [sibling_order] region is checked at the end of the load and read
    by that first decode.  The index keeps the file open (see
    {!Xstorage.Store}), so it still answers after the file is unlinked
    or replaced.

    Only snapshot version 5 is read.  A snapshot of another version, or
    an xseqcol1 file of older builds, is refused with one diagnostic
    that names its version and the rebuild from the records ([xseq index
    RECORDS.xml]): by Theorem 1 a snapshot is a function of its records,
    so rebuilding is always available.
    @raise Invalid_argument on a corrupt or incompatible file, naming
    the failing part (magic, version, checksum, region); the store is
    closed again first. *)

val backing_store : t -> Xstorage.Store.t option
(** The open snapshot behind an index restored with [~mode:Paged] —
    exposes buffer-pool statistics ({!Xstorage.Store.page_reads} /
    {!Xstorage.Store.page_hits}) and {!Xstorage.Store.drop_pool} for
    cold-cache page counts; [None] for in-memory indexes. *)
