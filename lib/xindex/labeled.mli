(** The frozen, labelled index (Section 4.1, "Tree Labeling" and "Path
    Linking").

    Every trie node [n] is labelled with a pair [(n⊢, n⊣)]: its serial
    number in a depth-first traversal and the largest serial number among
    its descendants, so [x] is a descendant of [y] iff
    [x⊢ ∈ (y⊢, y⊣]].  For each distinct path encoding, a {e horizontal
    path link} holds the labels of all nodes with that encoding, in
    ascending serial order, ready for binary search (Figure 8/9).

    Additionally, each link entry stores the link position of its nearest
    same-encoding ancestor ([up]); this is what makes the sibling-cover /
    forward-prefix checks of Section 4.2 O(log) per candidate.

    {2 Columnar representation}

    The index is stored as flat columns (structure of arrays): the
    concatenated link-entry columns ([l_pre] / [l_post] / [l_up],
    slot-major in deterministic path order), the sorted document table,
    and a small in-memory link directory of offsets into them.  A trie
    node's id is its serial and every node but the virtual root is
    exactly one link entry, so the links are the labels: there are no
    per-node columns.  Every label, offset and id is a 32-bit value: the
    link directory is {!Xutil.I32} vectors (a path-to-slot map, each
    slot's dictionary index, and [n + 1] entry offsets), and a flat
    column is an [int32] buffer.  Each column is an
    {!Xstorage.Store.column}, so one view serves every physical
    representation: unboxed 32-bit flat buffers (a built index), pages
    of an open snapshot file read through the buffer pool, and
    compressed blocks.  Page I/O is the store's business: it counts the
    pages it reads (see {!backing_store}).

    {2 Symbols}

    An index owns the symbol table its paths belong to ({!symbols}):
    the build's table for a built index, one rebuilt from the stored
    dictionary for a loaded one.  Every [Path.t] an index takes or
    returns is a path of that table. *)

module Path = Sequencing.Symtab.Path

type t

type link
(** A horizontal path link. *)

val build : Sequencing.Symtab.t -> Path.t array array -> t
(** [build symbols seqs] labels the trie of the constraint sequences,
    [seqs.(i)] that of document [i], whose paths belong to the table.
    The trie's nodes are the sequences' distinct prefixes, numbered
    depth-first with children in ascending path-id order, so the
    labelling is deterministic.  No trie is built: sorted sequences
    create its nodes in the order the labelling visits them, so one
    sweep comparing each sorted sequence with its predecessor assigns
    serials, closes ranges, links every node to its nearest same-path
    ancestor and records where each sequence ends.  Path links are then
    a counting sort of the nodes by path id.  The link and document
    columns are unboxed 32-bit flat buffers
    ({!Xstorage.Store.flat_of_array}), the one in-memory backing a
    column has.

    @raise Invalid_argument on an empty sequence, or if the trie has
    more than [2^31 - 1] nodes (serials are 32-bit labels); the node
    count is checked before anything is labelled. *)

val symbols : t -> Sequencing.Symtab.t
(** The table of the index's paths.  Queries resolve names against it
    and only read it. *)

val node_count : t -> int
(** Trie nodes excluding the virtual root (the paper's [N]). *)

val doc_count : t -> int

val root_post : t -> int
(** The virtual root's post label: its range [[0, root_post]] spans the
    whole index, so it equals {!node_count}. *)

val size_bytes : t -> record_count:int -> int
(** The paper's disk-size estimate [4n + cN] with [c = 8] (Section 6.2). *)

val link : t -> Path.t -> link option
(** The path link for an encoding; [None] if no node carries it. *)

val link_length : link -> int
val link_pre : link -> int -> int
val link_post : link -> int -> int

val link_up : link -> int -> int
(** Link position of the nearest same-encoding proper ancestor, or -1. *)

val link_same_desc : link -> int -> bool
(** Whether the entry at this position has a same-encoding descendant —
    i.e. whether it "embeds identical siblings" in the sense of
    Algorithm 1.  Only then can a later match be sibling-covered, so the
    matcher skips the forward-prefix check otherwise. *)

val doc_len : t -> int
(** Entries in the document table. *)

val doc_pre_at : t -> int -> int
(** End-node serial of document-table entry [i] (sorted ascending). *)

val doc_id_at : t -> int -> int
(** Document id of document-table entry [i]. *)

val docs_between : t -> first:int -> last:int -> f:(int -> unit) -> unit
(** Applies [f] to the doc id of every table position in
    [[first, last]], for callers that located the span themselves (e.g.
    with instrumented probes). *)

val path_frequencies : ?member:(int -> bool) -> t -> int array
(** Per path id of {!symbols}, the number of documents whose sequence
    contains the path (0 for a path without a link) — the document
    frequency the [gbest] statistics count over the records, derived
    from the labels and the document table alone.  With [member], only
    documents whose id satisfies it are counted.  One pass over the
    document table and one over the link columns. *)

val distinct_paths : t -> int
(** Number of horizontal links. *)

val directory_words : t -> int
(** Words the link directory keeps on the OCaml heap: the path-to-slot
    map, the slots' dictionary indexes, their entry offsets and their
    multiplicity flags. *)

val column_bytes : t -> int
(** Bytes the link and document columns keep outside the OCaml heap
    ({!Xstorage.Store.off_heap_bytes}): their flat buffers. *)

(** {1 Columnar snapshots}

    The index serialises to an {!Xstorage.Store} as a bag of named
    regions (link columns, link directory, document table, and a
    compact path dictionary), so a snapshot written by
    {!Xstorage.Store.write} carries its own symbols — and, in paged
    mode, answers queries straight off disk.  The dictionary holds
    epsilon and every link path, by depth and then by the index's path
    id, so parents precede children and siblings keep their order. *)

val add_to_store : t -> Xstorage.Store.t -> unit
(** Registers every index region with the store.  Region names are
    reserved; combine with other regions freely as long as names do not
    clash.  The link and document columns are registered as the
    columns the index holds, without a copy; the dictionary and link
    directory as arrays ({!Xstorage.Store.add_int_array}).  In either
    format the path dictionary is (parent entry, designator id) pairs
    ([dict_parent], [dict_desig]) over the designators in use, in the
    (name, kind) order a load numbers them in
    ({!Sequencing.Symtab.name_order}): their kinds ([desig_kind]) and
    front-coded names ([desig_names]). *)

val of_store : Xstorage.Store.t -> t
(** Rebuilds the index view over the store's regions.  The stored
    dictionary becomes the index's symbol table, entry [i] as path id
    [i].  The link and document columns are the only regions the index
    keeps, with whatever backing the store gives them — resident
    buffers, disk pages behind the buffer pool, or compressed blocks
    decoded on probe — so opening a snapshot in paged mode yields an
    index that reads pages on demand.  The dictionary and link
    directory regions are read once, straight into 32-bit vectors
    ({!Xstorage.Store.i32}).  The dictionary's vectors and its name
    blob are handed over to the symbol table
    ({!Sequencing.Symtab.of_dictionary}); the link directory keeps
    [link_len] as the entry offsets it sums to, and [link_path] only as
    the path-to-link map it inverts to.

    Only the layout {!add_to_store} writes is read: a one-field [meta]
    and the compact dictionary with its designators in (name, kind)
    order.  [Xseq.load] upgrades a snapshot of any other layout from
    its records instead of calling this.

    @raise Sequencing.Symtab.Out_of_order if the designator table is out
    of (name, kind) order (see {!Sequencing.Symtab.of_dictionary}).
    @raise Invalid_argument naming the inconsistency if the regions are
    missing, mis-sized, or internally contradictory.  Validation covers
    every cross-region invariant (sizes, dictionary parent order, id
    ranges, link lengths summing to the [meta] node count and to the
    link columns' length, a node count within {!max_nodes}, no entry
    twice), so a structurally valid
    file that passed checksums cannot produce out-of-bounds reads
    here. *)

val backing_store : t -> Xstorage.Store.t option
(** The open snapshot behind an index built by {!of_store}, for
    buffer-pool statistics; [None] for in-memory indexes. *)

val path_multiple : t -> Path.t -> bool
(** Whether some indexed document contains the path at least twice
    (equivalently, whether some link entry has a same-encoding
    descendant).  This is the global identical-sibling trigger that query
    compilation must share with document encoding (see
    {!Sequencing.Encoder.encode}'s [ident]). *)
