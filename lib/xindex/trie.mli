(** The trie of constraint sequences (Section 4.1, "Sequence Insertion").

    Every document's constraint sequence is inserted as a root-to-node
    path; shared prefixes share trie nodes — the extent of sharing is
    exactly what the sequencing strategy optimises (Figure 14).  The
    document id is appended to the id list of the node where its sequence
    ends. *)

module Path = Sequencing.Symtab.Path

type t

val create : unit -> t

val insert : t -> Path.t array -> doc:int -> unit
(** Inserts one sequence; [doc] is the caller's document/record id.
    @raise Invalid_argument on an empty sequence. *)

val compare_seq : Path.t array * int -> Path.t array * int -> int
(** The order {!bulk_load} sorts [(sequence, document id)] pairs in:
    lexicographic over path ids, a prefix before its extensions;
    document ids are ignored. *)

val bulk_load : t -> (Path.t array * int) array -> unit
(** Sorts the sequences with {!compare_seq} before inserting — the
    paper's static bulk load.  The resulting trie holds the same
    sequences as one built by repeated {!insert}; {!Labeled.of_sorted}
    labels the sorted sequences without building it. *)

val node_count : t -> int
(** Number of trie nodes, excluding the virtual root. *)

val doc_count : t -> int
(** Number of inserted sequences. *)

(** Internal accessors used by {!Labeled} (stable, but not part of the
    user-facing API). *)

val path_of : t -> int -> Path.t
val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges t f] applies [f parent child] to every trie edge, in no
    particular order. *)

val doc_entries : t -> (int * int) array
(** [(end_node, doc_id)] pairs in insertion order. *)
