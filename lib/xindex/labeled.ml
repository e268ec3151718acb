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

   Paths are the index's own: [symbols] holds them, and a path's id
   names its link: path [p]'s link is slot [p - 1], in a built index and
   a loaded one alike.  Ids are the order the build interned the paths
   in (a parent's id is below its children's), so paths first met
   together (a record's elements and their children) have neighbouring
   links.  A table path no node carries has an empty link.  One
   function, [directory], derives the directory from the links'
   lengths, for the build and the load.

   An entry stores its [pre] and its span [post - pre]; only a link that
   nests (some entry has a same-path descendant) stores [up], in one
   compact column of the nesting links' entries in slot order. *)
(* The link directory, which [directory] derives from the links'
   [link_len] words for the build and the load alike. *)
type directory = {
  link_off : I32.t;
      (* slot s's entries are positions [link_off.(s), link_off.(s + 1))
         of [l_pre] and [l_span]: the prefix sums of the link lengths *)
  nest_slot : I32.t; (* the slots of the nesting links, ascending *)
  nest_off : I32.t;
      (* nesting link k's [up] entries start at [nest_off.(k)] of [l_up];
         one more offset closes the column *)
}

type t = {
  symbols : Symtab.t;
  n : int; (* nodes excluding virtual root; the root's post *)
  dir : directory;
  l_pre : Store.column; (* concatenated link entries, slot-major *)
  l_span : Store.column; (* post - pre *)
  l_up : Store.column; (* the nesting links' entries only *)
  doc_pre : Store.column; (* sorted *)
  doc_id : Store.column;
  source : Store.t option; (* the open snapshot the index was read from *)
}

type link = {
  k_pre : Store.column;
  k_span : Store.column;
  k_up : Store.column;
  loff : int;
  llen : int;
  uoff : int; (* where the link's [up] entries start, or -1: it does not nest *)
}

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

(* Element [i] through [I32]'s inline primitives, for the directory's,
   the sweep's, the save's and the load's loops; every value set is an
   id, a rank, an offset, a slot or a [link_len] word. *)
let get v i = Int32.to_int (I32.get32 v (4 * i))
let set v i x = I32.set32 v (4 * i) (Int32.of_int x)

let corrupt msg = invalid_arg ("Labeled.of_store: inconsistent snapshot: " ^ msg)

(* A link length and its nesting flag share one [link_len] word: twice
   the length, plus one if the link nests. *)
let max_link_length = (I32.max_value / 2) - 1

(* The link directory of the [link_len] words of an index of [n] nodes.
   A word out of range is a damaged snapshot's.  Sums beyond [n] are not
   kept, so the links fill the [n] entries iff the last offset is [n]: a
   total beyond [n > 0] leaves it 0, and with [n = 0] every word is 0 or
   out of range. *)
let directory ~n link_len =
  let nlinks = I32.length link_len in
  let link_off = I32.make (nlinks + 1) 0 in
  let total = ref 0 and nested = ref 0 in
  for s = 0 to nlinks - 1 do
    let w = get link_len s in
    (* A saturated word reads as [I32.max_value], which no link's is. *)
    if w < 0 || w >= I32.max_value || w lsr 1 > n then
      corrupt "link length out of range";
    total := !total + (w lsr 1);
    if !total <= n then set link_off (s + 1) !total;
    nested := !nested + (w land 1)
  done;
  let nest_slot = I32.make !nested 0 and nest_off = I32.make (!nested + 1) 0 in
  let k = ref 0 in
  for s = 0 to nlinks - 1 do
    if get link_len s land 1 = 1 then begin
      set nest_slot !k s;
      set nest_off (!k + 1)
        (get nest_off !k + get link_off (s + 1) - get link_off s);
      incr k
    end
  done;
  { link_off; nest_slot; nest_off }

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
  (* Per path id: its link length, and whether a node has a same-path
     ancestor, i.e. whether the link nests. *)
  let next = Array.make width 0 and link_len = I32.make (width - 1) 0 in
  for v = 1 to n - 1 do
    let p = Path.to_int path.(v) in
    next.(p) <- next.(p) + 1;
    if up.(v) >= 0 then set link_len (p - 1) 1
  done;
  for p = 1 to width - 1 do
    if next.(p) > max_link_length then
      invalid_arg
        (Printf.sprintf "Labeled.build: a link of %d entries (at most %d)"
           next.(p) max_link_length);
    set link_len (p - 1) ((2 * next.(p)) + get link_len (p - 1))
  done;
  let dir = directory ~n:(n - 1) link_len in
  (* [next.(p)] becomes the position of p's next entry, and [ups.(p)],
     for a nesting p, that of its next [up]. *)
  let ups = Array.make width 0 in
  for k = 0 to I32.length dir.nest_slot - 1 do
    ups.(get dir.nest_slot k + 1) <- get dir.nest_off k
  done;
  for p = 1 to width - 1 do
    next.(p) <- get dir.link_off (p - 1)
  done;
  let l_pre = Array.make (n - 1) 0 and l_span = Array.make (n - 1) 0 in
  let l_up = Array.make (get dir.nest_off (I32.length dir.nest_slot)) 0 in
  for v = 1 to n - 1 do
    let p = Path.to_int path.(v) in
    let e = next.(p) in
    next.(p) <- e + 1;
    l_pre.(e) <- v;
    l_span.(e) <- post.(v) - v;
    if get link_len (p - 1) land 1 = 1 then begin
      l_up.(ups.(p)) <- up.(v);
      ups.(p) <- ups.(p) + 1
    end
  done;
  (* Document table sorted by end-node serial. *)
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) ends;
  let fz = Store.flat_of_array in
  {
    symbols;
    n = n - 1;
    dir;
    l_pre = fz l_pre;
    l_span = fz l_span;
    l_up = fz l_up;
    doc_pre = fz (Array.map fst ends);
    doc_id = fz (Array.map snd ends);
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
  let width = Symtab.path_count symbols in
  (* lcp.(k): the prefix sequence [k] shares with sequence [k - 1], i.e.
     the nodes it reuses. *)
  let lcp = Array.make nseqs 0 in
  let n = ref 1 and depth = ref 0 in
  Array.iteri
    (fun k (s, _) ->
      let len = Array.length s in
      if len = 0 then invalid_arg "Labeled.build: empty sequence";
      for j = 0 to len - 1 do
        let p = Path.to_int s.(j) in
        if p = Path.to_int Path.epsilon then
          invalid_arg "Labeled.build: the empty path in a sequence";
        if p < 0 || p >= width then
          invalid_arg "Labeled.build: a path the table does not have"
      done;
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

let nlinks t = I32.length t.dir.link_off - 1

(* Slot [s]'s entries are positions [first_entry t s] up to
   [first_entry t (s + 1)] (excluded) of the link columns. *)
let first_entry t s = I32.get t.dir.link_off s

let distinct_paths t =
  let count = ref 0 in
  for s = 0 to nlinks t - 1 do
    if first_entry t (s + 1) > first_entry t s then incr count
  done;
  !count

(* The link slot of path [p], or -1. *)
let slot_of t p =
  let p = Path.to_int p in
  if p >= 1 && p <= nlinks t then p - 1 else -1

(* Where the [up] entries of slot [s] start in [l_up], or -1 if the link
   does not nest: a binary search among the few nesting slots. *)
let up_offset t s =
  let nest_slot = t.dir.nest_slot in
  let lo = ref 0 and hi = ref (I32.length nest_slot) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if I32.get nest_slot mid < s then lo := mid + 1 else hi := mid
  done;
  if !lo < I32.length nest_slot && I32.get nest_slot !lo = s then
    I32.get t.dir.nest_off !lo
  else -1

let link t p =
  match slot_of t p with
  | -1 -> None
  | slot ->
    let loff = first_entry t slot in
    let llen = first_entry t (slot + 1) - loff in
    (* An empty link: a table path no node carries. *)
    if llen = 0 then None
    else
      Some
        {
          k_pre = t.l_pre;
          k_span = t.l_span;
          k_up = t.l_up;
          loff;
          llen;
          uoff = up_offset t slot;
        }

let link_length l = l.llen
let link_pre l i = Store.get l.k_pre (l.loff + i)
let link_span l i = Store.get l.k_span (l.loff + i)
let link_up l i = if l.uoff < 0 then -1 else Store.get l.k_up (l.uoff + i)

(* Link entries are in pre-order, so an entry has a same-encoding
   descendant iff the immediately following entry falls inside its
   range; in a link that does not nest, none does. *)
let link_same_desc l i ~post =
  l.uoff >= 0 && i + 1 < l.llen && link_pre l (i + 1) <= post

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
    if get serials mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* A record's sequence is one root-to-leaf trie path ending at its
   doc-table entry, so the record contains path p iff that entry's serial
   falls in the range of some entry of p's link.  Entries nested in an
   earlier one ([pre <=] its [post]) add nothing: only the outermost
   ranges are counted.  [serials] holds the (member) doc-table serials,
   sorted as the table is, so a range's count is a difference of two
   ranks: one pass over the doc table, then one over each link.  The
   serials are a 32-bit vector, and each count goes straight to [f]. *)
let path_frequencies ?member t f =
  let serials = I32.make (doc_len t) 0 and counted = ref 0 in
  let below = Array.make (((t.n + 1) lsr rank_shift) + 2) 0 in
  for i = 0 to doc_len t - 1 do
    let x = doc_pre_at t i in
    if x < 0 || x > t.n then
      invalid_arg "Labeled.path_frequencies: document serial out of range";
    match member with
    | Some keep when not (keep (doc_id_at t i)) -> ()
    | Some _ | None ->
      set serials !counted x;
      incr counted;
      let k = (x lsr rank_shift) + 1 in
      below.(k) <- below.(k) + 1
  done;
  for k = 1 to Array.length below - 1 do
    below.(k) <- below.(k) + below.(k - 1)
  done;
  let count pre_at span_at =
    for slot = 0 to nlinks t - 1 do
      let total = ref 0 and outer_post = ref (-1) in
      for i = first_entry t slot to first_entry t (slot + 1) - 1 do
        let pre = pre_at i in
        if pre > !outer_post then begin
          let post = pre + span_at i in
          if pre < 1 || post < pre || post > t.n then
            invalid_arg "Labeled.path_frequencies: link entry out of range";
          total :=
            !total + rank serials below (post + 1) - rank serials below pre;
          outer_post := post
        end
      done;
      f (slot + 1) !total
    done
  in
  (* Slot order is link-column order: both columns are read front to
     back. *)
  Store.scan t.l_pre (fun pre_at -> Store.scan t.l_span (count pre_at))

(* --- the inversion sweep ------------------------------------------------ *)

(* The links inverted, per serial (0 the virtual root): its path id, its
   [post], its position in the link columns and its trie parent.  Read
   off the link columns in one pass and one stack pass over the serials;
   every step checks the structure it relies on and reports the first
   broken invariant through [Broken]. *)
type sweep = {
  s_path : I32.t;
  s_post : I32.t;
  s_entry : I32.t;
  s_parent : I32.t;
}

exception Broken of string

let broken fmt = Printf.ksprintf (fun msg -> raise (Broken msg)) fmt

let sweep t =
  let n = t.n in
  let s_path = I32.make (n + 1) (-1) and s_post = I32.make (n + 1) n in
  let s_entry = I32.make (n + 1) (-1) and s_parent = I32.make (n + 1) (-1) in
  I32.set s_path 0 (Path.to_int Path.epsilon);
  let invert pre_at span_at =
    for slot = 0 to nlinks t - 1 do
      let last = ref 0 in
      for i = first_entry t slot to first_entry t (slot + 1) - 1 do
        let pre = pre_at i in
        let post = pre + span_at i in
        if pre < 1 || pre > n then broken "serial %d out of range" pre;
        if pre <= !last then
          broken "link pre not strictly increasing at entry %d" i;
        if post < pre || post > n then
          broken "pre above post or post out of range at entry %d" i;
        if get s_entry pre >= 0 then broken "serial %d in two links" pre;
        last := pre;
        set s_path pre (slot + 1);
        set s_post pre post;
        set s_entry pre i
      done
    done
  in
  Store.scan t.l_pre (fun pre_at -> Store.scan t.l_span (invert pre_at));
  (* Serials are pre-order: a node's parent is the innermost open range
     still covering it, and a range must close inside its parent's. *)
  let stack = I32.make (n + 1) 0 and top = ref 0 in
  for v = 1 to n do
    if get s_entry v < 0 then broken "serial %d in no link" v;
    while get s_post (get stack !top) < v do
      decr top
    done;
    let parent = get stack !top in
    if get s_post v > get s_post parent then
      broken "ranges not laminar at serial %d" v;
    set s_parent v parent;
    incr top;
    set stack !top v
  done;
  { s_path; s_post; s_entry; s_parent }

(* The serial document-table entry [i] ends at, checked. *)
let doc_end t i =
  let v = doc_pre_at t i in
  if v < 1 || v > t.n then
    broken "document-table entry %d ends at serial %d" i v;
  v

(* The chain of trie nodes from the root to [v]: a document's sequence. *)
let chain t sw v =
  let depth = ref 0 and u = ref v in
  while !u > 0 do
    incr depth;
    u := get sw.s_parent !u
  done;
  let seq = Array.make !depth Path.epsilon in
  u := v;
  for d = !depth - 1 downto 0 do
    seq.(d) <- Path.of_int t.symbols (get sw.s_path !u);
    u := get sw.s_parent !u
  done;
  seq

let sequences t =
  match sweep t with
  | sw -> Array.init (doc_len t) (fun i -> chain t sw (doc_end t i))
  | exception Broken msg -> invalid_arg ("Labeled.sequences: " ^ msg)

let check t =
  match
    let sw = sweep t in
    (* [up]: the link position of the nearest same-path proper ancestor,
       by one more pass over the serials with the open nodes on a stack,
       each path's innermost open node as the build keeps it. *)
    let innermost = I32.make (Symtab.path_count t.symbols) (-1) in
    let want_up = I32.make (max 1 t.n) (-1) in
    let stack = I32.make (t.n + 1) 0 and top = ref 0 in
    let entry_pos v = get sw.s_entry v - first_entry t (get sw.s_path v - 1) in
    for v = 1 to t.n do
      while get stack !top <> get sw.s_parent v do
        let u = get stack !top in
        set innermost (get sw.s_path u) (get want_up (get sw.s_entry u));
        decr top
      done;
      let p = get sw.s_path v in
      set want_up (get sw.s_entry v) (get innermost p);
      set innermost p (entry_pos v);
      incr top;
      set stack !top v
    done;
    (* A link nests iff an entry's successor falls inside its range,
       and only a nesting link has [up] entries (the load has checked
       that they fill [l_up]). *)
    for slot = 0 to nlinks t - 1 do
      let nested = ref false in
      for i = first_entry t slot to first_entry t (slot + 1) - 2 do
        let post = Store.get t.l_pre i + Store.get t.l_span i in
        if Store.get t.l_pre (i + 1) <= post then nested := true
      done;
      if !nested <> (up_offset t slot >= 0) then
        broken "link %d's multiplicity flag disagrees with its entries" slot
    done;
    Store.scan t.l_up (fun up_at ->
        for slot = 0 to nlinks t - 1 do
          let off = first_entry t slot and uoff = up_offset t slot in
          for i = off to first_entry t (slot + 1) - 1 do
            let up = if uoff < 0 then -1 else up_at (uoff + i - off) in
            if up <> get want_up i then
              broken "up at entry %d is not the nearest same-link ancestor" i
          done
        done);
    let ndocs = doc_len t in
    let seen = Bytes.make ndocs '\000' in
    for i = 0 to ndocs - 1 do
      if i > 0 && doc_end t i < doc_end t (i - 1) then
        broken "document table not sorted by end serial at entry %d" i;
      let id = doc_id_at t i in
      if id < 0 || id >= ndocs || Bytes.get seen id <> '\000' then
        broken "document ids not a permutation at entry %d" i;
      Bytes.set seen id '\001';
      if not (Sequencing.Seq_constraint.is_valid t.symbols
                (chain t sw (doc_end t i)))
      then broken "document %d's sequence is not a valid constraint sequence" id
    done
  with
  | () -> Ok ()
  | exception Broken msg -> Error msg

let path_multiple t p =
  match slot_of t p with -1 -> false | slot -> up_offset t slot >= 0

let backing_store t = t.source

let directory_words t = Obj.reachable_words (Obj.repr t.dir)

let column_bytes t =
  List.fold_left
    (fun total c -> total + Store.off_heap_bytes c)
    0
    [ t.l_pre; t.l_span; t.l_up; t.doc_pre; t.doc_id ]

(* --- snapshot regions ---------------------------------------------------- *)

(* Region names in the columnar snapshot (see Xstorage.Store for the file
   format).  The dictionary carries the index's own symbols, so a loaded
   index rebuilds its symbol table from it. *)

(* The compact dictionary: entry [i] is path [i], epsilon and every link
   path, so parents precede children.  Trie edges are (parent entry,
   designator) pairs over the designators in use, ranked in the symbol
   table's own (name, kind) order ([Symtab.name_order]), the order a load
   numbers them in; their names, sorted hence prefix-heavy, are
   front-coded ([Symtab.coded_names]). *)
let dict_regions t store =
  let n = nlinks t + 1 in
  let parent = Array.make n (-1) and desig = Array.make n (-1) in
  let order = Symtab.name_order t.symbols in
  (* By designator id: its kind if in use (else -1), then its rank. *)
  let rank = I32.make (I32.length order) (-1) and used = ref 0 in
  for i = 1 to n - 1 do
    let p = Path.of_int t.symbols i in
    let d = Path.tag t.symbols p in
    parent.(i) <- Path.to_int (Path.parent t.symbols p);
    desig.(i) <- (d :> int);
    if get rank (d :> int) < 0 then begin
      set rank (d :> int) (Bool.to_int (D.is_value t.symbols d));
      incr used
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
  Store.add_blob store "desig_names" (Symtab.coded_names t.symbols keys)

(* The link directory is one word a slot: twice the link's length, plus
   one if it nests.  Slot [s] is path [s + 1], so no path is stored. *)
let add_to_store t store =
  Store.add_int_array store "meta" [| t.n |];
  dict_regions t store;
  let k = ref 0 in
  Store.add_int_array store "link_len"
    (Array.init (nlinks t) (fun s ->
         let nests =
           !k < I32.length t.dir.nest_slot && I32.get t.dir.nest_slot !k = s
         in
         if nests then incr k;
         (2 * (first_entry t (s + 1) - first_entry t s))
         + Bool.to_int nests));
  Store.add_ints store "l_pre" t.l_pre;
  Store.add_ints store "l_span" t.l_span;
  Store.add_ints store "l_up" t.l_up;
  Store.add_ints store "doc_pre" t.doc_pre;
  Store.add_ints store "doc_id" t.doc_id

let of_store store =
  let meta = Store.int_array store "meta" in
  if Array.length meta <> 1 then corrupt "meta region size";
  let n = meta.(0) in
  if n < 0 then corrupt "negative node count";
  if n > max_nodes then corrupt "node count beyond 32 bits";
  (* Directory regions are read straight into 32-bit vectors.  A value
     beyond 32 bits saturates, and every check below rejects it as it
     would the value itself. *)
  let vector = Store.i32 store in
  (* The dictionary becomes the index's symbol table, entry i as path i:
     epsilon first, every other entry extending an earlier one and
     naming its designator by an id into a front-coded (kind, name)
     table.  The table takes the vectors and the coded names over; the
     kinds are read straight into its bytes, anything but 0 or 1 as a
     byte it refuses. *)
  let parents = vector "dict_parent" in
  if I32.length parents = 0 then corrupt "dictionary root";
  (* One link a dictionary entry after epsilon, slot s for entry s + 1.
     Once the directory is read off it, the table sorts its paths in
     [link_len]'s room, so [link_len] is out of scope after that. *)
  let nslots, dir, symbols =
    let link_len = vector "link_len" in
    let nslots = I32.length link_len in
    if nslots <> I32.length parents - 1 then corrupt "link directory sizes";
    let dir = directory ~n link_len in
    (* Read first: a damaged region is its checksum mismatch. *)
    let names = Store.blob store "desig_names" in
    let desigs = vector "dict_desig" in
    let kinds =
      Store.bytes store "desig_kind" (fun k ->
          if k = 0 || k = 1 then Char.chr k else '\002')
    in
    match
      Symtab.of_dictionary ~scratch:link_len ~kinds ~names ~parents ~desigs
    with
    | symbols -> (nslots, dir, symbols)
    | exception Invalid_argument what -> corrupt what
  in
  let l_pre = Store.ints store "l_pre" in
  let l_span = Store.ints store "l_span" in
  (* Every node but the root is exactly one link entry. *)
  if
    get dir.link_off nslots <> n
    || Store.length l_pre <> n
    || Store.length l_span <> n
  then corrupt "link column sizes";
  (* The nesting links' [up] entries fill [l_up], in slot order. *)
  let l_up = Store.ints store "l_up" in
  if Store.length l_up <> get dir.nest_off (I32.length dir.nest_slot) then
    corrupt "up column size";
  let doc_pre = Store.ints store "doc_pre" in
  let doc_id = Store.ints store "doc_id" in
  if Store.length doc_pre <> Store.length doc_id then corrupt "doc table sizes";
  {
    symbols;
    n;
    dir;
    l_pre;
    l_span;
    l_up;
    doc_pre;
    doc_id;
    source = Some store;
  }
