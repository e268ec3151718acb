module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module Path = Symtab.Path
module Bs = Xutil.Binsearch
module Store = Xstorage.Store

type backend = Heap_arrays | Columnar

(* The index is a set of flat columns (structure of arrays): per-node
   label columns, the concatenated link entry columns, the document
   table, and a small in-memory link directory of offsets into them.
   Columns are Store handles, so the very same view serves heap arrays,
   unboxed flat buffers, and disk pages behind the buffer pool.

   Paths are the index's own: [symbols] holds them.  The dictionary is
   epsilon and every link path, by depth then id; the columns name paths
   by dictionary index.  A loaded index's path ids are its dictionary
   indexes; a built index keeps its build ids and maps the dictionary
   onto them. *)
type t = {
  symbols : Symtab.t;
  n : int; (* nodes excluding virtual root *)
  pre : Store.column; (* node id -> serial *)
  post : Store.column;
  node_path : Store.column; (* node id -> dictionary index *)
  dict : Path.t array option; (* dictionary index -> path; None: identity *)
  slot : int array; (* path id -> link slot, or -1 *)
  link_path : int array; (* slot -> dictionary index *)
  link_off : int array; (* slot -> first entry position in l_* columns *)
  link_len : int array;
  l_pre : Store.column; (* concatenated link entries, slot-major *)
  l_post : Store.column;
  l_up : Store.column;
  l_node : Store.column;
  doc_pre : Store.column; (* sorted *)
  doc_id : Store.column;
  multi : bool array;
      (* Per-slot "some document carries this path twice" flags.  Computed
         eagerly at construction (one linear scan per link) so the frozen
         index is strictly read-only afterwards — query compilation probes
         this table from several domains at once. *)
  source : Store.t option; (* the open snapshot, for paged indexes *)
}

type link = {
  k_pre : Store.column;
  k_post : Store.column;
  k_up : Store.column;
  k_node : Store.column;
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
  let link_off = Array.make nlinks 0 in
  let link_len = Array.make nlinks 0 in
  let link_path_t = Array.make nlinks Path.epsilon in
  let slot = ref 0 and off = ref 0 in
  for p = 0 to width - 1 do
    let len = next.(p) in
    if len > 0 then begin
      link_off.(!slot) <- !off;
      link_len.(!slot) <- len;
      link_path_t.(!slot) <- Path.of_int symbols p;
      next.(p) <- !off;
      off := !off + len;
      incr slot
    end
  done;
  let l_pre = Array.make (n - 1) 0 in
  let l_post = Array.make (n - 1) 0 in
  let l_up = Array.make (n - 1) 0 in
  let l_node = Array.make (n - 1) 0 in
  for v = 1 to n - 1 do
    let p = Path.to_int path.(v) in
    let e = next.(p) in
    next.(p) <- e + 1;
    l_pre.(e) <- v;
    l_post.(e) <- post.(v);
    l_up.(e) <- up.(v);
    l_node.(e) <- v
  done;
  let slot = Array.make width (-1) in
  Array.iteri (fun s p -> slot.(Path.to_int p) <- s) link_path_t;
  let multi =
    Array.init nlinks (fun slot ->
        has_nested l_pre l_post link_off.(slot) link_len.(slot))
  in
  (* Document table sorted by end-node serial. *)
  Array.sort (fun (a, _) (b, _) -> Stdlib.compare a b) ends;
  let doc_pre = Array.map fst ends in
  let doc_id = Array.map snd ends in
  (* Dictionary: epsilon and the link paths (every node path), by depth
     then id — a stable sort of the id-ordered paths — so parents
     precede children; node and link paths are stored as dictionary
     indexes. *)
  let dict = Array.append [| Path.epsilon |] link_path_t in
  Array.stable_sort
    (fun a b -> Int.compare (Path.depth symbols a) (Path.depth symbols b))
    dict;
  let index_of = next (* its offsets are spent *) in
  Array.iteri (fun i p -> index_of.(Path.to_int p) <- i) dict;
  let node_path = Array.map (fun p -> index_of.(Path.to_int p)) path in
  let link_path = Array.map (fun p -> index_of.(Path.to_int p)) link_path_t in
  let fz = Store.flat_of_array in
  {
    symbols;
    n = n - 1;
    pre = fz (Array.init n Fun.id);
    post = fz post;
    node_path = fz node_path;
    dict = Some dict;
    slot;
    link_path;
    link_off;
    link_len;
    l_pre = fz l_pre;
    l_post = fz l_post;
    l_up = fz l_up;
    l_node = fz l_node;
    doc_pre = fz doc_pre;
    doc_id = fz doc_id;
    multi;
    source = None;
  }

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
let root_pre t = Store.get t.pre 0
let root_post t = Store.get t.post 0

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
  if p < Array.length t.slot then t.slot.(p) else -1

let link t p =
  match slot_of t p with
  | -1 -> None
  | slot ->
    Some
      {
        k_pre = t.l_pre;
        k_post = t.l_post;
        k_up = t.l_up;
        k_node = t.l_node;
        loff = t.link_off.(slot);
        llen = t.link_len.(slot);
      }

let link_length l = l.llen
let link_pre l i = Store.get l.k_pre (l.loff + i)
let link_post l i = Store.get l.k_post (l.loff + i)
let link_up l i = Store.get l.k_up (l.loff + i)
let link_node l i = Store.get l.k_node (l.loff + i)

let link_range l ~lo ~hi =
  let get i = link_pre l i in
  let first = Bs.lower_bound_by ~get ~len:l.llen lo in
  let last = Bs.upper_bound_by ~get ~len:l.llen hi - 1 in
  (first, last)

let link_floor l x = Bs.floor_index_by ~get:(fun i -> link_pre l i) ~len:l.llen x

(* Link entries are in pre-order, so an entry has a same-encoding
   descendant iff the immediately following entry falls inside its range. *)
let link_same_desc l i = i + 1 < l.llen && link_pre l (i + 1) <= link_post l i

(* Deepest same-encoding ancestor of serial [x]: start from the floor
   entry and climb [up] pointers until the range contains [x]. *)
let nearest_in_link l x =
  let rec climb i =
    if i < 0 then -1 else if link_post l i >= x then i else climb (link_up l i)
  in
  climb (link_floor l x)

let doc_len t = Store.length t.doc_pre
let doc_pre_at t i = Store.get t.doc_pre i
let doc_id_at t i = Store.get t.doc_id i

let doc_span t ~lo ~hi =
  let len = doc_len t in
  let get i = doc_pre_at t i in
  let first = Bs.lower_bound_by ~get ~len lo in
  let last = Bs.upper_bound_by ~get ~len hi - 1 in
  (first, last)

let docs_between t ~first ~last ~f =
  for i = first to last do
    f (doc_id_at t i)
  done

let docs_in_range t ~lo ~hi ~f =
  let first, last = doc_span t ~lo ~hi in
  docs_between t ~first ~last ~f

(* A record's sequence is one root-to-leaf trie path ending at its
   doc-table entry, so the record contains path p iff that entry's serial
   falls in the range of some entry of p's link.  Entries nested in an
   earlier one ([pre <=] its [post]) add nothing: only the outermost
   ranges are counted.  The doc table is read into an array once and
   each link scanned front to back; per-entry probes of a compressed doc
   table would decode (and cache) most of its blocks. *)
let path_doc_counts ?member t =
  let doc_pre = Store.to_array t.doc_pre in
  let nd = Array.length doc_pre in
  (* below.(i): member records among doc-table positions [0, i). *)
  let below =
    Option.map
      (fun keep ->
        let b = Array.make (nd + 1) 0 in
        for i = 0 to nd - 1 do
          b.(i + 1) <- (b.(i) + if keep (Store.get t.doc_id i) then 1 else 0)
        done;
        b)
      member
  in
  let count lo hi =
    let first = Bs.lower_bound doc_pre ~len:nd lo in
    let stop = Bs.upper_bound doc_pre ~len:nd hi in
    match below with None -> stop - first | Some b -> b.(stop) - b.(first)
  in
  Array.mapi
    (fun slot off ->
      let total = ref 0 and outer_post = ref (-1) in
      for i = off to off + t.link_len.(slot) - 1 do
        let pre = Store.get t.l_pre i in
        if pre > !outer_post then begin
          let post = Store.get t.l_post i in
          total := !total + count pre post;
          outer_post := post
        end
      done;
      (dict_path t t.link_path.(slot), !total))
    t.link_off

let path_multiple t p =
  match slot_of t p with -1 -> false | slot -> t.multi.(slot)

let pre_of_node t id = Store.get t.pre id
let post_of_node t id = Store.get t.post id
let path_of_node t id = dict_path t (Store.get t.node_path id)
let distinct_paths t = Array.length t.link_off
let backing_store t = t.source

(* Rebuild the same index over a different column backend — used by the
   storage benchmarks and the backend-equivalence oracle tests. *)
let remap ?(backend = Columnar) t =
  let fz c =
    let a = Store.to_array c in
    match backend with
    | Heap_arrays -> Store.heap a
    | Columnar -> Store.flat_of_array a
  in
  {
    t with
    pre = fz t.pre;
    post = fz t.post;
    node_path = fz t.node_path;
    l_pre = fz t.l_pre;
    l_post = fz t.l_post;
    l_up = fz t.l_up;
    l_node = fz t.l_node;
    doc_pre = fz t.doc_pre;
    doc_id = fz t.doc_id;
    source = None;
  }

(* --- snapshot regions ---------------------------------------------------- *)

(* Region names in the columnar snapshot (see Xstorage.Store for the file
   format).  The dictionary spells each path out (kind + name + parent
   entry), so a loaded index rebuilds its own symbol table from it. *)

(* The dictionary entry of every path of the index: [(parent entry,
   designator)] for each entry but epsilon, which has none. *)
let dict_entries t =
  let n = dict_size t in
  let index_of = Array.make (Symtab.path_count t.symbols) (-1) in
  for i = 0 to n - 1 do
    index_of.(Path.to_int (dict_path t i)) <- i
  done;
  Array.init n (fun i ->
      let p = dict_path t i in
      if Path.equal p Path.epsilon then None
      else
        Some
          ( index_of.(Path.to_int (Path.parent t.symbols p)),
            Path.tag t.symbols p ))

let dict_regions t store =
  let entries = dict_entries t in
  let n = Array.length entries in
  let names = Buffer.create 1024 in
  let parent = Array.make n (-1) in
  let kind = Array.make n 0 in
  let name_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun i e ->
      name_off.(i) <- Buffer.length names;
      Option.iter
        (fun (pi, d) ->
          parent.(i) <- pi;
          kind.(i) <- Bool.to_int (D.is_value t.symbols d);
          Buffer.add_string names (D.name t.symbols d))
        e)
    entries;
  name_off.(n) <- Buffer.length names;
  Store.add_ints store "dict_parent" (Store.heap parent);
  Store.add_ints store "dict_kind" (Store.heap kind);
  Store.add_ints store "dict_name_off" (Store.heap name_off);
  Store.add_blob store "dict_names" (Buffer.contents names)

(* Compact dictionary: trie edges are (parent entry, designator id); the
   designators themselves are deduplicated into a (kind, name) table
   whose names — sorted, hence prefix-heavy — are front-coded.  A DBLP
   trie has thousands of edges over a few dozen distinct tags, so the
   edge cost drops from one spelled-out name per entry to one small
   id. *)
let dict_regions_compact t store =
  let entries = dict_entries t in
  let n = Array.length entries in
  let parent = Array.make n (-1) in
  let desig = Array.make n (-1) in
  let key d = (D.name t.symbols d, Bool.to_int (D.is_value t.symbols d)) in
  let uniq = Hashtbl.create 64 in
  Array.iter
    (Option.iter (fun (_, d) -> Hashtbl.replace uniq (key d) ()))
    entries;
  let pairs =
    List.sort Stdlib.compare (Hashtbl.fold (fun kv () acc -> kv :: acc) uniq [])
  in
  let id_of = Hashtbl.create (List.length pairs) in
  List.iteri (fun i kv -> Hashtbl.replace id_of kv i) pairs;
  Array.iteri
    (fun i e ->
      Option.iter
        (fun (pi, d) ->
          parent.(i) <- pi;
          desig.(i) <- Hashtbl.find id_of (key d))
        e)
    entries;
  Store.add_ints store "dict_parent" (Store.heap parent);
  Store.add_ints store "dict_desig" (Store.heap desig);
  Store.add_ints store "desig_kind"
    (Store.heap (Array.of_list (List.map snd pairs)));
  Store.add_blob store "desig_names"
    (Xsuccinct.Frontcode.encode (Array.of_list (List.map fst pairs)))

let add_to_store ?(compact = false) t store =
  Store.add_ints store "meta" (Store.heap [| t.n |]);
  (if compact then dict_regions_compact else dict_regions) t store;
  Store.add_ints store "node_pre" t.pre;
  Store.add_ints store "node_post" t.post;
  Store.add_ints store "node_path" t.node_path;
  Store.add_ints store "link_path" (Store.heap t.link_path);
  Store.add_ints store "link_off" (Store.heap t.link_off);
  Store.add_ints store "link_len" (Store.heap t.link_len);
  Store.add_ints store "link_multi"
    (Store.heap (Array.map (fun b -> if b then 1 else 0) t.multi));
  Store.add_ints store "l_pre" t.l_pre;
  Store.add_ints store "l_post" t.l_post;
  Store.add_ints store "l_up" t.l_up;
  Store.add_ints store "l_node" t.l_node;
  Store.add_ints store "doc_pre" t.doc_pre;
  Store.add_ints store "doc_id" t.doc_id

let corrupt msg = invalid_arg ("Labeled.of_store: inconsistent snapshot: " ^ msg)

let of_store store =
  let meta = Store.to_array (Store.ints store "meta") in
  (* Snapshots written before the simulated page layout was retired carry
     two more meta fields (its byte offsets) and a [link_base] region;
     both are ignored. *)
  if Array.length meta <> 1 && Array.length meta <> 3 then
    corrupt "meta region size";
  let n = meta.(0) in
  if n < 0 then corrupt "negative node count";
  (* The dictionary becomes the index's symbol table, entry i as path i:
     epsilon first, every other entry extending an earlier one.
     Compact (xseqcol2) snapshots name each entry's designator by an id
     into a front-coded (kind, name) table; legacy snapshots spell each
     entry out. *)
  let parent = Store.to_array (Store.ints store "dict_parent") in
  let ndict = Array.length parent in
  let symbols = Symtab.create () in
  let designator kind name =
    match kind with
    | 0 -> D.tag symbols name
    | 1 -> D.value symbols name
    | _ -> corrupt "designator kind out of range"
  in
  let entry_designator =
    if Store.mem store "dict_desig" then begin
      let desig = Store.to_array (Store.ints store "dict_desig") in
      let dkind = Store.to_array (Store.ints store "desig_kind") in
      let dnames =
        try
          Xsuccinct.Frontcode.decode
            ~name:"Labeled.of_store: inconsistent snapshot: designator names"
            (Store.blob store "desig_names")
        with Invalid_argument _ -> corrupt "designator name table"
      in
      let ndesig = Array.length dnames in
      if Array.length desig <> ndict || Array.length dkind <> ndesig then
        corrupt "dictionary region sizes";
      let desigs =
        Array.init ndesig (fun i -> designator dkind.(i) dnames.(i))
      in
      if ndict > 0 && desig.(0) >= 0 then
        corrupt "root entry with a designator";
      fun i ->
        if desig.(i) < 0 || desig.(i) >= ndesig then
          corrupt "designator id out of range";
        desigs.(desig.(i))
    end
    else begin
      let kind = Store.to_array (Store.ints store "dict_kind") in
      let name_off = Store.to_array (Store.ints store "dict_name_off") in
      let names = Store.blob store "dict_names" in
      if Array.length kind <> ndict || Array.length name_off <> ndict + 1 then
        corrupt "dictionary region sizes";
      fun i ->
        let lo = name_off.(i) and hi = name_off.(i + 1) in
        if lo < 0 || hi < lo || hi > String.length names then
          corrupt "dictionary name offsets";
        designator kind.(i) (String.sub names lo (hi - lo))
    end
  in
  if ndict = 0 || parent.(0) >= 0 then corrupt "dictionary root";
  for i = 1 to ndict - 1 do
    if parent.(i) < 0 || parent.(i) >= i then corrupt "dictionary parent order";
    let p =
      Path.child symbols (Path.of_int symbols parent.(i)) (entry_designator i)
    in
    if Path.to_int p <> i then corrupt "duplicate dictionary entry"
  done;
  let pre = Store.ints store "node_pre" in
  let post = Store.ints store "node_post" in
  let node_path = Store.ints store "node_path" in
  if Store.length pre <> n + 1 || Store.length post <> n + 1
     || Store.length node_path <> n + 1
  then corrupt "node column sizes";
  let link_path = Store.to_array (Store.ints store "link_path") in
  let link_off = Store.to_array (Store.ints store "link_off") in
  let link_len = Store.to_array (Store.ints store "link_len") in
  let link_multi = Store.to_array (Store.ints store "link_multi") in
  let nlinks = Array.length link_path in
  if
    Array.length link_off <> nlinks
    || Array.length link_len <> nlinks
    || Array.length link_multi <> nlinks
  then corrupt "link directory sizes";
  let l_pre = Store.ints store "l_pre" in
  let l_post = Store.ints store "l_post" in
  let l_up = Store.ints store "l_up" in
  let l_node = Store.ints store "l_node" in
  let total_entries = Store.length l_pre in
  if
    Store.length l_post <> total_entries
    || Store.length l_up <> total_entries
    || Store.length l_node <> total_entries
  then corrupt "link column sizes";
  let slot = Array.make ndict (-1) in
  for s = 0 to nlinks - 1 do
    if link_path.(s) < 0 || link_path.(s) >= ndict then
      corrupt "link path id out of range";
    if
      link_off.(s) < 0 || link_len.(s) < 0
      || link_off.(s) + link_len.(s) > total_entries
    then corrupt "link slice out of range";
    slot.(link_path.(s)) <- s
  done;
  let doc_pre = Store.ints store "doc_pre" in
  let doc_id = Store.ints store "doc_id" in
  if Store.length doc_pre <> Store.length doc_id then corrupt "doc table sizes";
  for id = 0 to n do
    let pid = Store.get node_path id in
    if pid < 0 || pid >= ndict then corrupt "node path id out of range"
  done;
  {
    symbols;
    n;
    pre;
    post;
    node_path;
    dict = None;
    slot;
    link_path;
    link_off;
    link_len;
    l_pre;
    l_post;
    l_up;
    l_node;
    doc_pre;
    doc_id;
    multi = Array.map (fun x -> x <> 0) link_multi;
    source = Some store;
  }
