(** Constraints over sequences of path-encoded nodes (Section 2.3).

    A constraint [f(·,·)] disambiguates ancestor–descendant relationships
    among sequenced nodes (Definition 1).  Two constraints from the paper:

    - [F1] (Eq. 2): [f1 (p, q) ≡ p ⊂ q] — pure prefix containment, a valid
      constraint only when the tree has no identical sibling nodes;
    - [F2] (Eq. 3): [f2 (p, q) ≡ p] is a {e forward prefix} of [q]
      (Definition 2) — the nearest preceding occurrence of each prefix is
      the ancestor, which disambiguates identical siblings. *)

type kind = F1 | F2

val is_valid : Symtab.t -> Symtab.Path.t array -> bool
(** [is_valid symbols seq] checks that [seq] is a well-formed
    ancestor-first constraint sequence: it is non-empty, its first
    element has depth 1, and every later element has a forward prefix
    (so the tree can be reconstructed by {!Decoder}). *)

val holds : Symtab.t -> kind -> Symtab.Path.t array -> int -> int -> bool
(** [holds symbols k seq i j] evaluates the constraint
    [f_k(seq.(i), seq.(j))]: for {!F1}, strict prefix containment; for
    {!F2}, whether [i] is the forward prefix of [j] at depth
    [Path.depth seq.(i)].  Indices must be valid. *)
