(** User sequencing strategies [g] (Sections 2.4 and 5).

    Within the freedom a constraint leaves, the strategy decides the order
    of the path-encoded nodes.  The paper compares four:

    - {!Depth_first} — pre-order document traversal (what ViST uses);
    - {!Breadth_first} — level order;
    - {!Random} — an arbitrary constraint-respecting order (the worst case
      of Figure 14);
    - {!Probability} — the performance-oriented strategy [gbest], which
      emits nodes in descending weighted root-occurrence probability
      [p'(C|root) = p(C|root) × w(C)] (Eq. 6) so that sequences from the
      same schema share the longest possible prefixes. *)

type t =
  | Depth_first
  | Breadth_first
  | Random of int  (** seed; deterministic per (seed, document) *)
  | Probability of (Symtab.Path.t -> float)
      (** [gbest]: priority of a node is the weighted probability of its
          path; ties break on path id then document position.  The
          function prices the paths of one index's symbol table. *)

val name : t -> string
(** Short name for reports: ["depth-first"], ["breadth-first"],
    ["random"], ["probability"]. *)
