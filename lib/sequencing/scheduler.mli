(** The generic constraint-sequencing scheduler shared by document encoding
    and query sequencing.

    Nodes are abstract integers.  The scheduler emits the root, then
    repeatedly the enabled node (parent emitted) with the highest
    [(prio desc, depth asc, path id asc, rank asc)] key — except that a
    node with identical siblings has its whole subtree emitted
    recursively before anything else is selected (Algorithm 2), which
    keeps forward-prefix reconstruction unambiguous.

    Queries and documents must order equal-priority nodes identically for
    subsequence matching to be complete; the (depth, path id) tie-break
    provides that when both are sequenced over the same index's symbol
    table, and [rank] (document position) only breaks ties between nodes
    with the {e same} path.  A loaded index numbers its paths by depth,
    then build id (its stored dictionary order), so it breaks ties
    exactly as its build did. *)

type spec = {
  prio : int -> float;  (** strategy priority; larger comes earlier *)
  depth : int -> int;  (** depth of the node's encoding *)
  path_id : int -> int;  (** [Path.to_int] of the node's encoding *)
  rank : int -> int;  (** pre-order position; must be unique *)
  iter_children : int -> (int -> unit) -> unit;
      (** applies a function to each child, in document order *)
  has_identical : int -> bool;
      (** whether some sibling carries the same path encoding *)
}

val emit : spec -> root:int -> int list
(** The emission order, starting with [root]. *)
