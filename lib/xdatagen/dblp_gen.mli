(** DBLP-like bibliography records.

    The paper indexes the real DBLP download (407,417 records, ~21
    elements per constraint sequence, max depth 6).  Offline, we
    synthesise records with the same shape: one publication element per
    record ([article], [inproceedings], [book], [phdthesis]) with the
    usual fields, Zipf-skewed author and venue frequencies, and a unique
    [key].  The four Table 8 queries ([/inproceedings/title],
    [/book\[key='Maier'\]/author], [/*/author\[text='David'\]],
    [//author\[text='David'\]]) all have non-trivial answers. *)

val generate : ?seed:int -> int -> Xmlcore.Xml_tree.t array
(** [generate n] draws [n] records.  Deterministic in (seed, n). *)
