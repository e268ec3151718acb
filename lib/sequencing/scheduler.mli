(** The generic constraint-sequencing scheduler shared by document encoding
    and query sequencing.

    Nodes are the integers [0 .. n - 1].  The scheduler emits the root,
    then repeatedly the enabled node (parent emitted) with the highest
    [(prio desc, key asc, node asc)] order — except that a node with
    identical siblings has its whole subtree emitted recursively before
    anything else is selected (Algorithm 2), which keeps forward-prefix
    reconstruction unambiguous.

    Queries and documents must order equal-priority nodes identically for
    subsequence matching to be complete; the key, (depth, path id) of the
    node's encoding ({!key}), provides that when both are sequenced over
    the same index's symbol table, and the node number (its pre-order
    position) only breaks ties between nodes with the {e same} path.  A
    loaded index numbers its paths in their build id order (its stored
    dictionary order), so it breaks ties exactly as its build did. *)

type spec = {
  prio : Float.Array.t;  (** per node: the strategy priority; larger first *)
  key : int array;  (** per node: {!key} of its encoding; smaller first *)
  iter_children : int -> (int -> unit) -> unit;
      (** applies a function to each child, in document order *)
  has_identical : int -> bool;
      (** whether some sibling carries the same path encoding *)
}

val key : depth:int -> path_id:int -> int
(** The tie-break of two equal priorities in one int: depth, then path
    id, both non-negative 31-bit values. *)

val emit : spec -> root:int -> (int -> int -> unit) -> unit
(** [emit spec ~root out] calls [out k v] for the [k]-th emitted node
    [v], starting with [out 0 root].  [v] has left the heap by then, and
    the scheduler reads neither [prio] nor [key] at [v] again, so [out]
    may reuse those two slots.  The heap is one int array of
    [Float.Array.length spec.prio] slots: a nested heap (Algorithm 2's
    recursion) starts where its parent's ends and is empty again before
    the parent's grows. *)
