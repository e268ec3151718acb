(** Symbol tables: the designators and paths of one index.

    The paper designates each element or attribute name by a
    {e designator} and each value by a value designator [h(value)]
    (Section 2.1), and encodes every node by the designator path from
    the root to it ([P], [PD], [PDL], [PDLv1], ...; Section 2.2).  A
    symbol table interns both into small integers, so paths, sequences
    and index structures manipulate machine words only.

    Every index owns its table.  A build creates an empty one and its
    sequential flatten phase is the only writer: designators and paths
    get ids in first-seen order, from [Path.epsilon = 0].  A loaded
    index builds its table with {!of_dictionary} from the snapshot's
    stored dictionary, at its final size: its path ids are dictionary
    indexes and its designator ids (name, kind) ranks.  Once the index
    exists the table is only read — by parallel encoding and by query
    compilation, from any number of domains — and it is dropped with
    the index.  A name the index lacks is simply absent
    ({!Designator.find_tag}, {!Path.find_child}), so a query that
    mentions it misses cleanly.

    The table is flat: designators and paths are columns indexed by id
    (a designator's kind and the offsets of its name; a path's parent
    and last designator).  Every column holds 32-bit values
    ({!Xutil.I32}), so ids, path counts and name bytes stay below
    [2^31]; interning past that raises [Invalid_argument].  The
    designator names are one blob, each name a slice of it.  The two
    kinds of table find names and edges differently:
    - A built table interns, so it keeps an open-addressing index of
      ids per namespace (a power-of-two vector, linear probing, at most
      half full) whose keys are read back from the columns, a depth
      column, and a thread of each path's element children.  Interning
      a new designator or path allocates nothing but the growth of
      those columns.
    - A loaded table hashes nothing and interns nothing.  A value is
      binary-searched in (name, kind) order, within the block of eight
      designators that a directory of name prefixes (one word per
      block) picks out; a tag among the tags alone, whose prefixes are
      all kept.  Each path's children form one run, tags first,
      in which an edge is binary-searched; a per-designator column of
      the first path it ends answers most value edges at once.  Its
      depths are the first path of each depth.
    A lookup compares its key against a slice of the blob in place: it
    allocates nothing but the [Some] of a hit.  {!Designator.name} is
    the one accessor that copies a name out; {!Designator.name_equal}
    and {!Designator.name_has_prefix} test one without copying.

    Ids mean nothing outside their table: compare paths of two indexes
    by their names ({!Path.to_list} and {!Designator.name}). *)

type t

val create : unit -> t
(** An empty table: no designators, and the one path {!Path.epsilon}. *)

exception Out_of_order
(** Raised by {!of_dictionary} for a designator table that is not in
    strict (name, kind) order, which no save writes.  It is not reported
    as damage: the table is only in a layout this reader does not take,
    and a snapshot load rebuilds such a file from its records. *)

val of_dictionary :
  kinds:Xutil.I32.t ->
  names:Bytes.t ->
  name_off:Xutil.I32.t ->
  parents:Xutil.I32.t ->
  desigs:Xutil.I32.t ->
  t
(** [of_dictionary ~kinds ~names ~name_off ~parents ~desigs] is the
    read-only table of a stored path dictionary, sized to fit it.
    [kinds], [names] and [name_off] are a designator table: entry [j] is
    a tag ([kinds.(j) = 0]) or a value ([1]) named by bytes
    [[name_off.(j), name_off.(j + 1))] of [names].  Dictionary entry [0]
    is {!Path.epsilon} ([parents.(0)] and [desigs.(0)] negative); entry
    [i > 0] extends entry [parents.(i) < i] by designator [desigs.(i)]
    and becomes path [i], and the entries come in depth order.

    The designator table must be in strict (name, kind) order (names by
    [String.compare], tags before values), as every save writes it
    ({!name_order}): one pass checks that, and entry [j] becomes
    designator [j], named in place.  The paths are then grouped by
    parent with two counting sorts.  Nothing is hashed or sorted by
    name.

    The table takes ownership of all five arguments.  It keeps
    [parents], [names] and [name_off] as its own columns and [desigs] as
    its path designators.  A caller hands over a blob nobody else sees —
    a fresh file read or a decoder's output — and never the shared
    string of a memory store ({!Xstorage.Store.blob_bytes} copies that
    one).

    The table interns nothing: {!Designator.tag}, {!Designator.value},
    {!Designator.char_value} and {!Path.child} return what it holds and
    raise [Invalid_argument] for anything new.
    @raise Out_of_order if the designator table is out of order.
    @raise Invalid_argument naming the violated condition: ["dictionary
    region sizes"], ["dictionary root"], ["root entry with a
    designator"], ["dictionary name offsets"], ["designator kind out of
    range"], ["designator id out of range"], ["dictionary parent
    order"], ["dictionary depth order"] or ["duplicate dictionary
    entry"]. *)

val name_order : t -> Xutil.I32.t * Bytes.t * Xutil.I32.t
(** [name_order tbl] is [(order, names, name_off)]: the designator ids
    in the (name, kind) order {!of_dictionary} numbers them in — sorted
    for a built table, the identity for a loaded one — and the table's
    own name blob and offsets (read only): designator [d] is bytes
    [[name_off.(d), name_off.(d + 1))] of [names]. *)

val path_count : t -> int
(** Paths in the table, [epsilon] included; every path id is below it. *)

module Designator : sig
  type table := t

  type t = private int
  (** A designator of one table.  Tags and values live in disjoint
      namespaces: [tag tbl "x"] and [value tbl "x"] differ. *)

  val tag : table -> string -> t
  (** [tag tbl name] interns an element or attribute name.
      @raise Invalid_argument on a table from {!of_dictionary} that
      lacks it. *)

  val value : table -> string -> t
  (** [value tbl text] interns a value (the paper's [h(·)] option for
      value nodes). *)

  val char_value : table -> char -> t
  (** [char_value tbl c] interns one character of the text-sequence value
      representation (the Index-Fabric-style option, where ["boston"]
      becomes [b,o,s,t,o,n]). *)

  val find_tag : table -> string -> t option
  (** The tag designator of [name], if the table has one.  Never
      interns. *)

  val find_value : table -> string -> t option

  val is_value : table -> t -> bool
  (** Whether [d] was created by {!value} or {!char_value}. *)

  val name : table -> t -> string
  (** The source string of [d] (without namespace marker), copied out of
      the table's name blob. *)

  val name_equal : table -> t -> string -> bool
  (** [name_equal tbl d s] is [String.equal (name tbl d) s], without
      copying the name: it allocates nothing. *)

  val name_has_prefix : table -> t -> string -> bool
  (** [name_has_prefix tbl d prefix] is
      [String.starts_with ~prefix (name tbl d)], allocating nothing. *)

  val equal : t -> t -> bool
end

module Path : sig
  type table := t

  type t = private int
  (** A root path of one table, with parent pointers, so prefix tests,
      depth lookups and child navigation are O(1)/O(depth) integer
      operations.  The table doubles as the {e schema path trie} that
      wildcard query steps expand over: each path knows its element
      children. *)

  val epsilon : t
  (** The empty path [ε] (depth 0), the parent of every document root. *)

  val child : table -> t -> Designator.t -> t
  (** [child tbl p d] is the path [p.d], interning it on first use.
      @raise Invalid_argument on a table from {!of_dictionary} that
      lacks it. *)

  val find_child : table -> t -> Designator.t -> t option
  (** Like {!child} but [None] instead of interning: query
      instantiation must not invent paths that carry no data. *)

  val parent : table -> t -> t
  (** One-step prefix.  @raise Invalid_argument on {!epsilon}. *)

  val tag : table -> t -> Designator.t
  (** Last designator.  @raise Invalid_argument on {!epsilon}. *)

  val depth : table -> t -> int
  (** Number of designators; [depth tbl epsilon = 0]. *)

  val element_children : table -> t -> t list
  (** One-step extensions of [p] by a {e tag} designator, in ascending id
      (value extensions are excluded: wildcards never match value
      nodes). *)

  val is_prefix : table -> t -> t -> bool
  (** [is_prefix tbl p q] iff [p] is a (non-strict) prefix of [q], the
      paper's [p ⊆ q]. *)

  val is_strict_prefix : table -> t -> t -> bool
  (** The paper's [p ⊂ q]. *)

  val ancestor_at_depth : table -> t -> int -> t
  (** [ancestor_at_depth tbl p d] is the prefix of [p] of depth [d].
      @raise Invalid_argument if [d] exceeds [depth tbl p] or is
      negative. *)

  val of_list : table -> Designator.t list -> t
  (** Interns the path spelled by a designator list, from the root. *)

  val to_list : table -> t -> Designator.t list
  (** Designators from the root down. *)

  val equal : t -> t -> bool

  val compare : t -> t -> int
  (** Total order on ids (fast, arbitrary). *)

  val lex_compare : table -> t -> t -> int
  (** Lexicographic order on designators, each ranked by name with
      values before tags, whatever their ids.  A prefix sorts before its
      extensions.  For a tag-sorted document
      ({!Xmlcore.Xml_tree.sort_by_tag} orders siblings the same way)
      this is exactly depth-first visit order, which is what aligns
      ViST-style query sequences with data sequences. *)

  val to_int : t -> int

  val of_int : table -> int -> t
  (** Inverse of {!to_int}.  @raise Invalid_argument if the table has no
      such path. *)

  val to_string : table -> t -> string
  (** Dotted rendering, e.g. ["P.D.L.v(boston)"]: tags verbatim, values
      as [v(text)]. *)
end
