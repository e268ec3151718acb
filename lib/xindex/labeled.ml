module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module Path = Symtab.Path
module Store = Xstorage.Store
module I32 = Xutil.I32

(* The index is a set of flat columns (structure of arrays): the
   concatenated link entry columns, the document table, and a small
   in-memory link directory of offsets into them.  A node's id is its
   serial, so the link entries are the nodes: no per-node column is
   kept.
   Columns are Store handles, so the very same view serves unboxed flat
   buffers, disk pages behind the buffer pool and compressed blocks.  The
   directory is 32-bit ([I32]), like the flat columns: an index holds at
   most [max_nodes] nodes.

   Paths are the index's own: [symbols] holds them.  The dictionary is
   epsilon and every link path, by depth then id; the columns name paths
   by dictionary index.  A loaded index's path ids are its dictionary
   indexes; a built index keeps its build ids and maps the dictionary
   onto them. *)
type t = {
  symbols : Symtab.t;
  n : int; (* nodes excluding virtual root; the root's post *)
  dict : Path.t array option; (* dictionary index -> path; None: identity *)
  slot : I32.t; (* path id -> link slot, or -1; see [slot_paths] *)
  link_off : I32.t;
      (* slot s's entries are positions [link_off.(s), link_off.(s + 1))
         of the l_* columns: the prefix sums of the stored [link_len] *)
  l_pre : Store.column; (* concatenated link entries, slot-major *)
  l_post : Store.column;
  l_up : Store.column;
  doc_pre : Store.column; (* sorted *)
  doc_id : Store.column;
  multi : Bytes.t;
      (* Per-slot "some document carries this path twice" flags, '\001'
         when set.  Computed eagerly at construction (one linear scan per
         link) so the frozen index is strictly read-only afterwards —
         query compilation probes this table from several domains at
         once. *)
  source : Store.t option; (* the open snapshot the index was read from *)
}

type link = {
  k_pre : Store.column;
  k_post : Store.column;
  k_up : Store.column;
  loff : int;
  llen : int;
}

(* Link entries are in pre-order, so an entry has a same-encoding
   descendant iff the immediately following entry falls inside its
   range; a link is "multiple" iff any entry does. *)
let has_nested pres posts off len =
  let rec scan i =
    i + 1 < len && (pres.(off + i + 1) <= posts.(off + i) || scan (i + 1))
  in
  scan 0

(* Sequences sorted lexicographically by path id, a prefix before its
   extensions; document ids are ignored. *)
let compare_seq (a, _) (b, _) =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la || i >= lb then Stdlib.compare la lb
    else
      let c = Path.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* [assemble] takes the labelled trie of [n] nodes, node 0 the virtual
   root and every node id its serial:
   - [post.(v)] is the largest serial in [v]'s subtree;
   - [path.(v)] is [v]'s encoding, a path of [symbols];
   - [up.(v)] is the link position of [v]'s nearest same-path proper
     ancestor, or -1;
   - [ends] holds the (end node, document id) of every sequence. *)
let assemble ~symbols ~post ~path ~up ends =
  let n = Array.length post in
  let width = Symtab.path_count symbols in
  (* Links are a counting sort of the nodes by path id: slots in
     ascending path id, each slot's entries in serial order. *)
  let next = Array.make width 0 in
  for v = 1 to n - 1 do
    let p = Path.to_int path.(v) in
    next.(p) <- next.(p) + 1
  done;
  let nlinks = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 next in
  let link_off = Array.make (nlinks + 1) 0 in
  let link_path_t = Array.make nlinks Path.epsilon in
  let slot = ref 0 and off = ref 0 in
  for p = 0 to width - 1 do
    let len = next.(p) in
    if len > 0 then begin
      link_off.(!slot) <- !off;
      link_path_t.(!slot) <- Path.of_int symbols p;
      next.(p) <- !off;
      off := !off + len;
      incr slot
    end
  done;
  link_off.(nlinks) <- !off;
  let l_pre = Array.make (n - 1) 0 in
  let l_post = Array.make (n - 1) 0 in
  let l_up = Array.make (n - 1) 0 in
  for v = 1 to n - 1 do
    let p = Path.to_int path.(v) in
    let e = next.(p) in
    next.(p) <- e + 1;
    l_pre.(e) <- v;
    l_post.(e) <- post.(v);
    l_up.(e) <- up.(v)
  done;
  let slot = I32.make width (-1) in
  Array.iteri (fun s p -> I32.set slot (Path.to_int p) s) link_path_t;
  let multi =
    Bytes.init nlinks (fun s ->
        let off = link_off.(s) in
        if has_nested l_pre l_post off (link_off.(s + 1) - off) then '\001'
        else '\000')
  in
  (* Document table sorted by end-node serial. *)
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) ends;
  let doc_pre = Array.map fst ends in
  let doc_id = Array.map snd ends in
  (* Dictionary: epsilon and the link paths (every node path), by depth
     then id — a stable sort of the id-ordered paths — so parents
     precede children. *)
  let dict = Array.append [| Path.epsilon |] link_path_t in
  Array.stable_sort
    (fun a b -> Int.compare (Path.depth symbols a) (Path.depth symbols b))
    dict;
  let fz = Store.flat_of_array in
  {
    symbols;
    n = n - 1;
    dict = Some dict;
    slot;
    link_off = I32.of_array link_off;
    l_pre = fz l_pre;
    l_post = fz l_post;
    l_up = fz l_up;
    doc_pre = fz doc_pre;
    doc_id = fz doc_id;
    multi;
    source = None;
  }

let max_nodes = I32.max_value

let check_node_count n =
  if n < 0 || n > max_nodes then
    invalid_arg
      (Printf.sprintf
         "Labeled.build: %d nodes do not fit 32-bit labels (at most %d)" n
         max_nodes)

(* Sorted sequences create trie nodes in depth-first order, children by
   ascending path id: exactly the order the labelling visits them.  So a
   node's id is its serial, each sequence only has to be compared with
   its predecessor, and the nodes still open when a sequence diverges
   from its predecessor are closed with the last serial issued. *)
let build symbols seqs =
  let seqs = Array.mapi (fun i s -> (s, i)) seqs in
  Array.sort compare_seq seqs;
  let nseqs = Array.length seqs in
  (* lcp.(k): the prefix sequence [k] shares with sequence [k - 1], i.e.
     the nodes it reuses. *)
  let lcp = Array.make nseqs 0 in
  let n = ref 1 and depth = ref 0 in
  Array.iteri
    (fun k (s, _) ->
      let len = Array.length s in
      if len = 0 then invalid_arg "Labeled.build: empty sequence";
      let l = ref 0 in
      if k > 0 then begin
        let prev = fst seqs.(k - 1) in
        let plen = Array.length prev in
        while !l < len && !l < plen && Path.equal s.(!l) prev.(!l) do
          incr l
        done
      end;
      lcp.(k) <- !l;
      n := !n + len - !l;
      depth := max !depth len)
    seqs;
  let n = !n in
  check_node_count (n - 1);
  let path = Array.make n Path.epsilon in
  let post = Array.make n (n - 1) and up = Array.make n (-1) in
  (* Per path id: the link entries created so far, and the link position
     of the innermost open node.  Opening a node makes it the innermost;
     closing it restores its [up]. *)
  let width = Symtab.path_count symbols in
  let entries = Array.make width 0 and innermost = Array.make width (-1) in
  let open_at = Array.make (!depth + 1) 0 (* open node per depth *) in
  let ends = Array.make nseqs (0, 0) in
  let next = ref 1 and open_depth = ref 0 in
  let close_below d =
    for i = !open_depth downto d + 1 do
      let v = open_at.(i) in
      post.(v) <- !next - 1;
      innermost.(Path.to_int path.(v)) <- up.(v)
    done;
    open_depth := d
  in
  Array.iteri
    (fun k (s, doc) ->
      close_below lcp.(k);
      for d = lcp.(k) + 1 to Array.length s do
        let v = !next in
        incr next;
        let p = Path.to_int s.(d - 1) in
        path.(v) <- s.(d - 1);
        up.(v) <- innermost.(p);
        innermost.(p) <- entries.(p);
        entries.(p) <- entries.(p) + 1;
        open_at.(d) <- v
      done;
      open_depth := Array.length s;
      ends.(k) <- (open_at.(!open_depth), doc))
    seqs;
  close_below 0;
  assemble ~symbols ~post ~path ~up ends

let node_count t = t.n
let doc_count t = Store.length t.doc_id
let root_post t = t.n

let size_bytes t ~record_count = (4 * record_count) + (8 * t.n)

let symbols t = t.symbols

let dict_path t i =
  match t.dict with Some dict -> dict.(i) | None -> Path.of_int t.symbols i

let dict_size t =
  match t.dict with
  | Some dict -> Array.length dict
  | None -> Symtab.path_count t.symbols

let slot_of t p =
  let p = Path.to_int p in
  if p < I32.length t.slot then I32.get t.slot p else -1

let link t p =
  match slot_of t p with
  | -1 -> None
  | slot ->
    let loff = I32.get t.link_off slot in
    Some
      {
        k_pre = t.l_pre;
        k_post = t.l_post;
        k_up = t.l_up;
        loff;
        llen = I32.get t.link_off (slot + 1) - loff;
      }

let distinct_paths t = I32.length t.link_off - 1

(* The path of every link slot, the inverse of [slot]: the index keeps
   no copy of it. *)
let slot_paths t =
  let paths = I32.make (distinct_paths t) 0 in
  for p = 0 to I32.length t.slot - 1 do
    let s = I32.get t.slot p in
    if s >= 0 then I32.set paths s p
  done;
  paths

let link_length l = l.llen
let link_pre l i = Store.get l.k_pre (l.loff + i)
let link_post l i = Store.get l.k_post (l.loff + i)
let link_up l i = Store.get l.k_up (l.loff + i)

(* Link entries are in pre-order, so an entry has a same-encoding
   descendant iff the immediately following entry falls inside its range. *)
let link_same_desc l i = i + 1 < l.llen && link_pre l (i + 1) <= link_post l i

let doc_len t = Store.length t.doc_pre
let doc_pre_at t i = Store.get t.doc_pre i
let doc_id_at t i = Store.get t.doc_id i

let docs_between t ~first ~last ~f =
  for i = first to last do
    f (doc_id_at t i)
  done

(* Serials are ranked in blocks of [1 lsl rank_shift]: [below.(k)]
   counts the serials under [k lsl rank_shift], so the serials of block
   [k] are [serials.(below.(k)) .. serials.(below.(k + 1) - 1)], and the
   rank of [x] (the serials under it) is a binary search among those of
   its block. *)
let rank_shift = 6

let rank serials below x =
  let lo = ref below.(x lsr rank_shift)
  and hi = ref below.((x lsr rank_shift) + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if serials.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* A record's sequence is one root-to-leaf trie path ending at its
   doc-table entry, so the record contains path p iff that entry's serial
   falls in the range of some entry of p's link.  Entries nested in an
   earlier one ([pre <=] its [post]) add nothing: only the outermost
   ranges are counted.  [serials] holds the (member) doc-table serials,
   sorted as the table is, so a range's count is a difference of two
   ranks: one pass over the doc table, then one over each link. *)
let path_frequencies ?member t =
  let serials = Array.make (doc_len t) 0 and counted = ref 0 in
  let below = Array.make (((t.n + 1) lsr rank_shift) + 2) 0 in
  for i = 0 to doc_len t - 1 do
    let x = doc_pre_at t i in
    if x < 0 || x > t.n then
      invalid_arg "Labeled.path_frequencies: document serial out of range";
    match member with
    | Some keep when not (keep (doc_id_at t i)) -> ()
    | Some _ | None ->
      serials.(!counted) <- x;
      incr counted;
      let k = (x lsr rank_shift) + 1 in
      below.(k) <- below.(k) + 1
  done;
  for k = 1 to Array.length below - 1 do
    below.(k) <- below.(k) + below.(k - 1)
  done;
  let freq = Array.make (Symtab.path_count t.symbols) 0 in
  let paths = slot_paths t in
  let count pre_at post_at =
    for slot = 0 to I32.length paths - 1 do
      let total = ref 0 and outer_post = ref (-1) in
      for i = I32.get t.link_off slot to I32.get t.link_off (slot + 1) - 1 do
        let pre = pre_at i in
        if pre > !outer_post then begin
          let post = post_at i in
          total :=
            !total + rank serials below (post + 1) - rank serials below pre;
          outer_post := post
        end
      done;
      freq.(I32.get paths slot) <- !total
    done
  in
  (* Slot order is link-column order: both columns are read front to
     back. *)
  Store.scan t.l_pre (fun pre_at -> Store.scan t.l_post (count pre_at));
  freq

let path_multiple t p =
  match slot_of t p with
  | -1 -> false
  | slot -> Bytes.get t.multi slot <> '\000'

let backing_store t = t.source

let directory_words t =
  Obj.reachable_words (Obj.repr t.slot)
  + Obj.reachable_words (Obj.repr t.link_off)
  + Obj.reachable_words (Obj.repr t.multi)

let column_bytes t =
  List.fold_left
    (fun total c -> total + Store.off_heap_bytes c)
    0
    [ t.l_pre; t.l_post; t.l_up; t.doc_pre; t.doc_id ]

(* --- snapshot regions ---------------------------------------------------- *)

(* Region names in the columnar snapshot (see Xstorage.Store for the file
   format).  The dictionary carries the index's own symbols, so a loaded
   index rebuilds its symbol table from it. *)

(* Element [i] through [I32]'s inline primitives, for the save's and the
   load's loops; every value set is an id, a rank, an offset or a slot. *)
let get v i = Int32.to_int (I32.get32 v (4 * i))
let set v i x = I32.set32 v (4 * i) (Int32.of_int x)

(* The compact dictionary: trie edges are (parent entry, designator)
   pairs over the designators in use, ranked in the symbol table's own
   (name, kind) order ([Symtab.name_order]), the order a load numbers
   them in; their names, sorted hence prefix-heavy, are front-coded
   from the table's blob.  The result is each path's entry, or -1. *)
let dict_regions t store =
  let n = dict_size t in
  let index_of = Array.make (Symtab.path_count t.symbols) (-1) in
  for i = 0 to n - 1 do
    index_of.(Path.to_int (dict_path t i)) <- i
  done;
  let parent = Array.make n (-1) and desig = Array.make n (-1) in
  let order, names, name_off = Symtab.name_order t.symbols in
  (* By designator id: its kind if in use (else -1), then its rank. *)
  let rank = I32.make (I32.length order) (-1) and used = ref 0 in
  for i = 0 to n - 1 do
    let p = dict_path t i in
    if not (Path.equal p Path.epsilon) then begin
      let d = Path.tag t.symbols p in
      parent.(i) <- index_of.(Path.to_int (Path.parent t.symbols p));
      desig.(i) <- (d :> int);
      if get rank (d :> int) < 0 then begin
        set rank (d :> int) (Bool.to_int (D.is_value t.symbols d));
        incr used
      end
    end
  done;
  let keys = I32.make !used 0 and kind = Array.make !used 0 and r = ref 0 in
  for k = 0 to I32.length order - 1 do
    let d = get order k in
    let is_value = get rank d in
    if is_value >= 0 then begin
      set keys !r d;
      kind.(!r) <- is_value;
      set rank d !r;
      incr r
    end
  done;
  Array.iteri (fun i d -> if d >= 0 then desig.(i) <- get rank d) desig;
  Store.add_int_array store "dict_parent" parent;
  Store.add_int_array store "dict_desig" desig;
  Store.add_int_array store "desig_kind" kind;
  Store.add_blob store "desig_names"
    (Xsuccinct.Frontcode.encode names name_off keys);
  index_of

let add_to_store t store =
  Store.add_int_array store "meta" [| t.n |];
  let index_of = dict_regions t store and paths = slot_paths t in
  Store.add_int_array store "link_path"
    (Array.init (I32.length paths) (fun s -> index_of.(I32.get paths s)));
  Store.add_int_array store "link_len"
    (Array.init (I32.length paths) (fun s ->
         I32.get t.link_off (s + 1) - I32.get t.link_off s));
  Store.add_int_array store "link_multi"
    (Array.init (Bytes.length t.multi) (fun s ->
         Char.code (Bytes.get t.multi s)));
  Store.add_ints store "l_pre" t.l_pre;
  Store.add_ints store "l_post" t.l_post;
  Store.add_ints store "l_up" t.l_up;
  Store.add_ints store "doc_pre" t.doc_pre;
  Store.add_ints store "doc_id" t.doc_id

let corrupt msg = invalid_arg ("Labeled.of_store: inconsistent snapshot: " ^ msg)

let of_store store =
  let meta = Store.int_array store "meta" in
  if Array.length meta <> 1 then corrupt "meta region size";
  let n = meta.(0) in
  if n < 0 then corrupt "negative node count";
  if n > max_nodes then corrupt "node count beyond 32 bits";
  (* Directory regions are read straight into 32-bit vectors.  A value
     beyond 32 bits saturates, and every check below rejects it as it
     would the value itself. *)
  let dir = Store.i32 store in
  (* The dictionary becomes the index's symbol table, entry i as path i:
     epsilon first, every other entry extending an earlier one and
     naming its designator by an id into a front-coded (kind, name)
     table.  The table takes the vectors and the names over. *)
  let parents = dir "dict_parent" in
  if I32.length parents = 0 then corrupt "dictionary root";
  (* Read first: a damaged region is its checksum mismatch. *)
  let coded = Store.blob store "desig_names" in
  let names, name_off =
    try
      Xsuccinct.Frontcode.decode
        ~name:"Labeled.of_store: inconsistent snapshot: designator names" coded
    with Invalid_argument _ -> corrupt "designator name table"
  in
  let desigs = dir "dict_desig" in
  let symbols =
    match
      Symtab.of_dictionary ~kinds:(dir "desig_kind")
        ~names:(Bytes.unsafe_of_string names) ~name_off ~parents ~desigs
    with
    | symbols -> symbols
    | exception Invalid_argument what -> corrupt what
  in
  let ndict = Symtab.path_count symbols in
  let link_path = dir "link_path" in
  let link_len = dir "link_len" in
  let link_multi = dir "link_multi" in
  let nlinks = I32.length link_path in
  if I32.length link_len <> nlinks || I32.length link_multi <> nlinks then
    corrupt "link directory sizes";
  (* Offsets fit 32 bits up to [n]; a larger sum fails the check below. *)
  let link_off = I32.make (nlinks + 1) 0 and total_entries = ref 0 in
  for s = 0 to nlinks - 1 do
    let len = get link_len s in
    if len < 0 || len > n then corrupt "link length out of range";
    total_entries := !total_entries + len;
    if !total_entries <= n then set link_off (s + 1) !total_entries
  done;
  let l_pre = Store.ints store "l_pre" in
  let l_post = Store.ints store "l_post" in
  let l_up = Store.ints store "l_up" in
  (* Every node but the root is exactly one link entry. *)
  if
    !total_entries <> n
    || Store.length l_pre <> n
    || Store.length l_post <> n
    || Store.length l_up <> n
  then corrupt "link column sizes";
  let slot = I32.make ndict (-1) in
  for s = 0 to nlinks - 1 do
    let p = get link_path s in
    if p < 0 || p >= ndict then corrupt "link path id out of range";
    if get slot p >= 0 then corrupt "duplicate link path";
    set slot p s
  done;
  let doc_pre = Store.ints store "doc_pre" in
  let doc_id = Store.ints store "doc_id" in
  if Store.length doc_pre <> Store.length doc_id then corrupt "doc table sizes";
  {
    symbols;
    n;
    dict = None;
    slot;
    link_off;
    l_pre;
    l_post;
    l_up;
    doc_pre;
    doc_id;
    multi =
      Bytes.init nlinks (fun s ->
          if get link_multi s <> 0 then '\001' else '\000');
    source = Some store;
  }
