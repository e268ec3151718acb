(** Prüfer codes for labelled rooted trees (Section 1; used by PRIX [16]).

    Nodes are numbered by post-order (1..n, the root receiving n); the code
    is produced by repeatedly deleting the leaf with the smallest number
    and appending its parent's number — n-1 deletions until only the root
    remains.  Together with the tag array the code determines the tree
    exactly, including sibling order (post-order numbers of siblings
    increase left to right). *)

type label =
  | Tag of string  (** an element or attribute name *)
  | Text of string  (** a value leaf *)

type t = {
  parents : int array;
      (** [parents.(i)] is the number of the parent of the (i+1)-th deleted
          leaf; length n-1. *)
  tags : label array;  (** [tags.(k)] labels node number [k+1]; length n. *)
}

val encode : Xmlcore.Xml_tree.t -> t
(** Prüfer code of the tree; value leaves are labelled with their
    text. *)

val decode : t -> Xmlcore.Xml_tree.t
(** Inverse of {!encode}. @raise Invalid_argument on a malformed code. *)

val to_string : t -> string
(** Rendering like ["<5,6,2,6,6>"] (numbers only), as in the paper's
    example for Figure 2(a). *)
