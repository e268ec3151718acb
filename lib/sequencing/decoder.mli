(** Reconstruction of the unique tree behind a constraint sequence
    (Theorem 1).

    Under constraint [f2], the parent of each sequenced node is the
    nearest preceding occurrence of its parent path, so a single forward
    pass rebuilds the tree.  Children are attached in sequence order; the
    result therefore equals the original document up to sibling
    permutation ([Xml_tree.isomorphic]), and equals it exactly for
    depth-first sequences. *)

exception Invalid_sequence of string

val decode : Symtab.t -> Symtab.Path.t array -> Xmlcore.Xml_tree.t
(** [decode symbols seq] rebuilds the tree from a sequence over the
    paths of [symbols].  Leaves whose designator is a value
    designator become [Value] nodes; everything else becomes an element.
    @raise Invalid_sequence if [seq] is not a valid ancestor-first
    constraint sequence (see {!Seq_constraint.is_valid}). *)
