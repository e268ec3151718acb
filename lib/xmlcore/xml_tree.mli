(** The XML data model: ordered labelled trees with value leaves.

    Following the paper (Figure 1), an XML document/record is a tree whose
    internal nodes carry element or attribute names and whose leaves may
    carry text values.  Attributes are normalised into child elements
    whose tag is the attribute name prefixed with ['@'], and their text
    into a {!Value} leaf, so the whole model is a single tree shape.

    Trees carry names as strings; designators (the paper's interned
    names) belong to the symbol table of the index a tree is put in
    ({!Sequencing.Symtab}), so a tree means the same in every index. *)

type t =
  | Element of string * t list  (** tag name and children *)
  | Value of string

val elt : string -> t list -> t
(** [elt name children] is [Element (name, children)]. *)

val attr : string -> string -> t
(** [attr name v] is the normalised form of an attribute:
    [Element ("@" ^ name, [Value v])]. *)

val text : string -> t
(** [text v] is [Value v]. *)

val tag : t -> string
(** Tag of an element.  @raise Invalid_argument on a [Value]. *)

val children : t -> t list
(** Children of an element, [[]] for a value leaf. *)

val node_count : t -> int
(** Total number of nodes (elements and value leaves). *)

val depth : t -> int
(** Height of the tree; a single node has depth 1. *)

val max_fanout : t -> int
(** Largest number of children of any node. *)

val equal : t -> t -> bool
(** Ordered structural equality. *)

val isomorphic : t -> t -> bool
(** Unordered structural equality: trees are isomorphic when one can be
    obtained from the other by permuting sibling subtrees (Figure 5). *)

val has_identical_siblings : t -> bool
(** [true] iff some node has two children that are elements with the same
    tag — the condition under which set representation is ambiguous and a
    constraint such as {e forward prefix} is required (Section 2.3). *)

val canonical_sort : t -> t
(** Recursively sorts sibling subtrees by a canonical total order, producing
    a representative of the isomorphism class.  [isomorphic a b] iff
    [equal (canonical_sort a) (canonical_sort b)]. *)

val sort_by_tag : t -> t
(** Recursively {e stable}-sorts siblings by their tag name only (value
    leaves sort before elements, by their text), whichever index the tree
    is later put in.  Unlike
    {!canonical_sort} the subtree contents do not influence the order, so
    a pattern and any document embedding it sort their common tags the
    same way — the property the depth-first (ViST-style) query pipeline
    relies on. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over every node of the tree. *)

val compare : t -> t -> int
(** Total order compatible with {!equal}. *)

val pp : Format.formatter -> t -> unit
(** Compact one-line rendering, e.g. [P(R(L("boston")))]. *)
