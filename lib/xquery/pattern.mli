(** Tree patterns — the basic query unit (Section 1).

    A pattern is an unordered tree whose nodes test tags (exactly, or with
    the wildcard [*]), whose edges are parent–child ([/]) or
    ancestor–descendant ([//]) axes, and whose leaves may test values.
    A document matches when there is an injective embedding of the
    pattern into the document tree that respects tags, values and axes —
    identical sibling pattern nodes must map to distinct document nodes
    (this is exactly the semantics constraint-sequence matching computes,
    Section 3). *)

type axis =
  | Child  (** [/]: the step's node is a child of its parent's match *)
  | Descendant  (** [//]: a proper descendant *)

type test =
  | Tag of string  (** element or attribute name; attributes are [@name] *)
  | Star  (** [*]: any element (never matches a value leaf) *)
  | Text of string  (** a value leaf equal to the string *)
  | Text_prefix of string
      (** a value leaf whose text starts with the string; supported only
          by indexes built with the {!Sequencing.Encoder.Text} value
          representation *)

type t = { test : test; axis : axis; children : t list }

val elt : ?axis:axis -> string -> t list -> t
(** Element step; [axis] defaults to [Child]. *)

val star : ?axis:axis -> t list -> t

val text : ?axis:axis -> string -> t
(** Value-equality leaf. *)

val text_prefix : ?axis:axis -> string -> t

val size : t -> int
(** Number of pattern nodes — the paper's "query length". *)

val has_identical_siblings : t -> bool
(** Whether two sibling steps carry equal tests — the case requiring
    isomorphism expansion (Section 3.3). *)

val pp : Format.formatter -> t -> unit
(** XPath-like rendering. *)

val to_string : t -> string
