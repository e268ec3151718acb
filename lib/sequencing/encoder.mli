(** Constraint sequencing of XML trees (Section 2.4, Algorithm 2).

    [encode] maps a document tree to a sequence of path-encoded nodes that
    satisfies constraint [f2]: nodes are emitted ancestor-first in the
    order chosen by the strategy, except that when the chosen node has
    identical siblings its whole subtree is emitted before anything else
    under the rule "no identical sibling of [x] may be selected until all
    descendants of [x] have been" — Algorithm 2's recursive
    [sequentialize]. *)

type value_mode =
  | Hashed
      (** A value leaf becomes one node whose designator is [h(value)] —
          the ViST option of Section 2.1. *)
  | Text
      (** A value leaf becomes a chain of character designators terminated
          by an end marker — the Index-Fabric option, which allows
          subsequence matching inside values. *)

type flat
(** A record flattened in pre-order: every node's path encoding, where
    its subtree ends, and whether a sibling carries the same path.  The
    input of {!sequence}; built once per record by {!flatten}. *)

type scratch
(** Growable buffers for {!flatten}, including an identical-sibling
    census indexed by path id that grows to the size of the symbol
    table.  A scratch is reused across the records of one build to avoid
    that cost per record.  It is mutable and unsynchronised: give each
    thread or domain that flattens its own. *)

val create_scratch : unit -> scratch

val flatten :
  ?value_mode:value_mode ->
  ?scratch:scratch ->
  ?sorted:bool ->
  Symtab.t ->
  Xmlcore.Xml_tree.t ->
  flat
(** [flatten symbols t] interns [t]'s designators and paths into
    [symbols], in pre-order, and records [t]'s node paths and
    identical-sibling flags.  Identical siblings are found in time linear
    in the number of children.  The result does not alias [scratch]
    (default: a fresh one).  Default [value_mode] is {!Hashed}.

    With [~sorted:true] the record is flattened as
    [Xmlcore.Xml_tree.sort_by_tag t] is, without building that tree, and
    each node also keeps its rank among its siblings in [t], so that
    {!sequence_ordered} reports sibling order against [t] itself. *)

val paths : flat -> Symtab.Path.t array
(** The node paths in pre-order — the multiset of path encodings of
    the record, without any sequencing decision (the "set
    representation" of Section 2.2). *)

val sequence :
  ?ident:(Symtab.Path.t -> bool) ->
  strategy:Strategy.t ->
  Symtab.t ->
  flat ->
  Symtab.Path.t array
(** [sequence ~strategy symbols f] is the constraint sequence of the flattened
    record.  The result always satisfies {!Seq_constraint.is_valid}.

    [ident] extends the identical-sibling rule to a {e global} path-level
    trigger: the subtree recursion fires for any node whose path satisfies
    [ident], in addition to nodes with in-document identical siblings.
    This matters for query completeness: a dataset in which {e some}
    documents duplicate a path must sequence that path's subtree
    contiguously in {e every} document (and in every query), otherwise
    the per-document deviation from pure priority order makes subsequence
    matching miss valid embeddings.  {!Xseq} flags every path that some
    record contains twice and threads the flags through both document
    encoding and query compilation.

    Only reads [symbols], which must be the table [f] was flattened
    into; safe to run on several domains. *)

val sequence_ordered :
  ?ident:(Symtab.Path.t -> bool) ->
  strategy:Strategy.t ->
  Symtab.t ->
  flat ->
  Symtab.Path.t array * int array
(** {!sequence}, and the record's sibling-order exceptions: what
    {!Decoder.decode}'s [order] needs besides the sequence to rebuild the
    record with its siblings in their order.  A sequence attaches each
    node's children in sequence order; for every node whose rank among
    its siblings in the record (its place among them in the record, for
    a record flattened with [~sorted]) differs from its place among them
    in sequence order, the exceptions hold its sequence position and
    that rank, as consecutive pairs in ascending position.  Empty when
    every node's children come out in record order, as under non-canonical
    depth-first sequencing.  Computed from the emission order the
    scheduler already produces; a record in order costs one pass over
    its nodes. *)

val encode :
  ?value_mode:value_mode ->
  ?scratch:scratch ->
  ?ident:(Symtab.Path.t -> bool) ->
  strategy:Strategy.t ->
  Symtab.t ->
  Xmlcore.Xml_tree.t ->
  Symtab.Path.t array
(** [encode ~strategy symbols t] is
    [sequence ~strategy symbols (flatten symbols t)].  Pass a [scratch]
    when encoding many records. *)

val paths_of_tree :
  ?value_mode:value_mode ->
  Symtab.t ->
  Xmlcore.Xml_tree.t ->
  Symtab.Path.t array
(** [paths (flatten t)], without the identical-sibling census or a
    scratch: the path encodings of [t]'s nodes in document
    (pre-)order, used by the DataGuide baseline and by statistics
    collection. *)

val value_end : string
(** The value whose designator closes every {!Text}-mode value chain, so
    that equality queries do not match proper prefixes. *)
