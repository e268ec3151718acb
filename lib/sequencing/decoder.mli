(** Reconstruction of the unique tree behind a constraint sequence
    (Theorem 1).

    Under constraint [f2], the parent of each sequenced node is the
    nearest preceding occurrence of its parent path, so a single forward
    pass rebuilds the tree.  Children are attached in sequence order; the
    result therefore equals the original document up to sibling
    permutation ([Xml_tree.isomorphic]), and equals it exactly for
    depth-first sequences, or with the record's sibling-order exceptions
    ({!Encoder.sequence_ordered}) under any strategy. *)

exception Invalid_sequence of string

val decode :
  ?value_mode:Encoder.value_mode ->
  ?order:int array ->
  Symtab.t ->
  Symtab.Path.t array ->
  Xmlcore.Xml_tree.t
(** [decode symbols seq] rebuilds the tree from a sequence over the
    paths of [symbols].  Leaves whose designator is a value
    designator become [Value] nodes; everything else becomes an element.
    Under [~value_mode:Text] (default {!Encoder.Hashed}) each chain of
    character designators closed by {!Encoder.value_end} becomes one
    [Value] holding the joined text.  [order] holds (sequence position,
    sibling rank) pairs, as {!Encoder.sequence_ordered} gives them: each
    such node goes to that rank among its siblings, and every other node
    keeps its place among them in sequence order (default: none).
    @raise Invalid_sequence if [seq] is not a valid ancestor-first
    constraint sequence (see {!Seq_constraint.is_valid}), a text chain is
    broken, or [order] is out of range or places two siblings at one
    rank. *)

val decoder :
  ?value_mode:Encoder.value_mode ->
  Symtab.t ->
  ?order:int array ->
  Symtab.Path.t array ->
  Xmlcore.Xml_tree.t
(** [decoder symbols] is [decode symbols] for many sequences of one
    table.  [decode] sets up two columns as long as the table for each
    sequence; a decoder sets them up once, and the trees it returns
    share one string per path name.  A decoder is mutable: use each from
    one thread at a time. *)
