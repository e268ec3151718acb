(** Wildcard instantiation: tree patterns → concrete path patterns.

    Wildcard steps ([*], [//]) are resolved against the schema path trie
    of an index — its symbol table, which holds exactly the paths that
    occur in it — the same idea as instantiating ['*'] to symbol [D] in
    the paper's example of Section 3.1.  A name the index lacks has no
    candidates.  The result is a
    set of {e concrete patterns}, trees whose nodes carry exact path
    encodings (possibly skipping levels across [//] edges); each is then
    sequenced and matched independently and the answers unioned. *)

exception Too_many of int
(** Raised when the number of instantiations would exceed the limit. *)

exception Unsupported of string
(** Raised for tests the index's value representation cannot express
    (e.g. {!Pattern.Text_prefix} against a hashed-value index). *)

type cnode = { path : Sequencing.Symtab.Path.t; kids : cnode list }
(** A concrete pattern node.  [path] is the full encoding from the
    document root; a child's path strictly extends its parent's (by
    exactly one designator across a [Child] edge). *)

val run :
  ?limit:int ->
  value_mode:Sequencing.Encoder.value_mode ->
  Sequencing.Symtab.t ->
  Pattern.t ->
  cnode list
(** [run ~value_mode symbols p] enumerates the concrete patterns of [p]
    over the paths of [symbols].  Only reads the table.  [limit]
    (default 4096) bounds the result.

    @raise Too_many when the limit is hit.
    @raise Unsupported for {!Pattern.Text_prefix} with [value_mode =
    Hashed]. *)

val cnode_size : cnode -> int
val cnode_compare : cnode -> cnode -> int
