module D = Symtab.Designator
module Path = Symtab.Path
module T = Xmlcore.Xml_tree

type value_mode = Hashed | Text

let value_end = "\x00end"

(* A record flattened in pre-order.  The children of node [i] are
   [i + 1], then [stop.(c)] after each child [c], while below
   [stop.(i)].  A record flattened with its siblings in tag order keeps
   each node's rank among its siblings in the record ([orank]); in
   record order that rank is the node's place among its flat
   siblings. *)
type flat = {
  fpaths : Path.t array;
  stop : int array; (* one past the last node of the subtree *)
  twin : Bytes.t; (* '\001' where a sibling carries the same path *)
  orank : int array; (* empty unless flattened in tag order *)
}

let paths f = f.fpaths

(* Flattening writes into a caller-owned scratch of growable buffers and
   copies the result out at the end.  [seen] and [twice] are indexed by
   path id: they hold the last sibling group (a counter of the scratch)
   in which the path occurred once and twice, so spotting identical
   siblings takes two array reads per child, with no table per node and
   nothing to reset between groups or records.  They grow to the size of
   the symbol table on the first sibling group, so one scratch should
   serve many records of one build. *)
type scratch = {
  mutable spaths : Path.t array;
  mutable sstop : int array;
  mutable stwin : Bytes.t;
  mutable srank : int array;
  mutable n : int;
  mutable seen : int array;
  mutable twice : int array;
  mutable group : int;
}

let create_scratch () =
  {
    spaths = Array.make 256 Path.epsilon;
    sstop = Array.make 256 0;
    stwin = Bytes.make 256 '\000';
    srank = Array.make 256 0;
    n = 0;
    seen = [||];
    twice = [||];
    group = 0;
  }

let push s path =
  let i = s.n in
  if i = Array.length s.spaths then begin
    let grow a fill = Array.append a (Array.make i fill) in
    s.spaths <- grow s.spaths Path.epsilon;
    s.sstop <- grow s.sstop 0;
    s.stwin <- Bytes.extend s.stwin 0 i;
    s.srank <- grow s.srank 0
  end;
  s.spaths.(i) <- path;
  Bytes.unsafe_set s.stwin i '\000';
  s.n <- i + 1

let mark_twins symbols s i =
  let stop = s.sstop.(i) and first = i + 1 in
  (* Only a node with at least two children can have identical ones. *)
  if first < stop && s.sstop.(first) < stop then begin
    let width = Symtab.path_count symbols and cap = Array.length s.seen in
    if width > cap then begin
      let grow a = Array.append a (Array.make (max width (2 * cap) - cap) 0) in
      s.seen <- grow s.seen;
      s.twice <- grow s.twice
    end;
    s.group <- s.group + 1;
    let g = s.group in
    let c = ref first in
    while !c < stop do
      let p = Path.to_int s.spaths.(!c) in
      if s.seen.(p) = g then s.twice.(p) <- g else s.seen.(p) <- g;
      c := s.sstop.(!c)
    done;
    c := first;
    while !c < stop do
      if s.twice.(Path.to_int s.spaths.(!c)) = g then
        Bytes.set s.stwin !c '\001';
      c := s.sstop.(!c)
    done
  end

(* Pre-order: a node's path is interned before any of its children's.
   A text value becomes a chain of character designators closed by the
   [value_end] designator.  With [sorted], siblings are visited in
   {!Xmlcore.Xml_tree.sort_by_tag}'s order and each keeps its rank in
   the record. *)
let rec visit symbols s ~twins ~sorted mode parent t =
  match t with
  | T.Element (name, cs) ->
    let i = s.n in
    push s (Path.child symbols parent (D.tag symbols name));
    let path = s.spaths.(i) in
    if sorted then begin
      let kids = Array.of_list cs in
      let order = Array.init (Array.length kids) Fun.id in
      Array.stable_sort
        (fun a b -> T.sibling_compare kids.(a) kids.(b))
        order;
      Array.iter
        (fun r ->
          let at = s.n in
          visit symbols s ~twins ~sorted mode path kids.(r);
          s.srank.(at) <- r)
        order
    end
    else visit_all symbols s ~twins mode path cs;
    s.sstop.(i) <- s.n;
    if twins then mark_twins symbols s i
  | T.Value v ->
    (match mode with
     | Hashed ->
       push s (Path.child symbols parent (D.value symbols v));
       s.sstop.(s.n - 1) <- s.n
     | Text ->
       let first = s.n in
       let p = ref parent in
       String.iter
         (fun c ->
           p := Path.child symbols !p (D.char_value symbols c);
           push s !p)
         v;
       push s (Path.child symbols !p (D.value symbols value_end));
       for k = first to s.n - 1 do
         s.sstop.(k) <- s.n
       done)

(* Children in record order, without a closure per element. *)
and visit_all symbols s ~twins mode parent = function
  | [] -> ()
  | c :: cs ->
    visit symbols s ~twins ~sorted:false mode parent c;
    visit_all symbols s ~twins mode parent cs

let flatten_with symbols s ~twins ~sorted value_mode t =
  s.n <- 0;
  visit symbols s ~twins ~sorted value_mode Path.epsilon t;
  {
    fpaths = Array.sub s.spaths 0 s.n;
    stop = Array.sub s.sstop 0 s.n;
    twin = Bytes.sub s.stwin 0 s.n;
    orank = (if sorted then Array.sub s.srank 0 s.n else [||]);
  }

(* Every node's strategy priority, for the scheduler. *)
let priorities symbols strategy paths =
  let n = Array.length paths in
  match strategy with
  | Strategy.Depth_first -> Float.Array.init n (fun i -> -.float_of_int i)
  | Strategy.Breadth_first ->
    Float.Array.init n (fun i ->
        -.float_of_int ((Path.depth symbols paths.(i) * (1 lsl 26)) + i))
  | Strategy.Random seed ->
    let salt = Array.fold_left (fun h p -> (h * 31) + Path.to_int p) 17 paths in
    let rng = Random.State.make [| seed; salt |] in
    Float.Array.init n (fun _ -> Random.State.float rng 1.0)
  | Strategy.Probability f -> Float.Array.map_from_array f paths

(* Sibling order.  [pos.(v)] is the position of a flat record's node
   [v] in its sequence.  The children of [p] as (position, rank), by
   position: [found] gains each one out of its place. *)
let out_of_order f pos ~sorted p found =
  let kids = ref [] and c = ref (p + 1) and j = ref 0 in
  while !c < f.stop.(p) do
    kids := (pos.(!c), if sorted then f.orank.(!c) else !j) :: !kids;
    c := f.stop.(!c);
    incr j
  done;
  snd
    (List.fold_left
       (fun (j, found) (at, rank) ->
         (j + 1, if rank <> j then (at, rank) :: found else found))
       (0, found) (List.sort compare !kids))

(* Only a node of two or more children can have children out of their
   place: they are checked in flat order, allocating nothing, and sorted
   by position only when out of order. *)
let rec scan_order f pos ~sorted p found =
  if p = Array.length f.fpaths then found
  else
    let stop = f.stop.(p) and first = p + 1 in
    let in_order = ref true and c = ref first and j = ref 0 in
    if first < stop && f.stop.(first) < stop then
      while !in_order && !c < stop do
        let next = f.stop.(!c) in
        if
          (sorted && f.orank.(!c) <> !j)
          || (next < stop && pos.(next) < pos.(!c))
        then in_order := false;
        c := next;
        incr j
      done;
    scan_order f pos ~sorted (p + 1)
      (if !in_order then found else out_of_order f pos ~sorted p found)

(* The record's sibling-order exceptions: for every node whose rank
   among its siblings in the record differs from its place among them
   in sequence order, its position and that rank, by position. *)
let exceptions f pos =
  match scan_order f pos ~sorted:(Array.length f.orank > 0) 0 [] with
  | [] -> [||]
  | found ->
    let found = Array.of_list (List.sort compare found) in
    Array.init (2 * Array.length found) (fun k ->
        let at, rank = found.(k / 2) in
        if k land 1 = 0 then at else rank)

let sequence_gen ~order ?(ident = fun _ -> false) ~strategy symbols f =
  let paths = f.fpaths in
  let key =
    Array.map
      (fun p ->
        Scheduler.key ~depth:(Path.depth symbols p)
          ~path_id:(Path.to_int p))
      paths
  in
  let spec =
    {
      Scheduler.prio = priorities symbols strategy paths;
      key;
      iter_children =
        (fun i visit ->
          let stop = f.stop.(i) in
          let c = ref (i + 1) in
          while !c < stop do
            visit !c;
            c := f.stop.(!c)
          done);
      has_identical =
        (fun i -> Bytes.get f.twin i <> '\000' || ident paths.(i));
    }
  in
  let seq = Array.make (Array.length paths) Path.epsilon in
  (* A node's key is dead once it is emitted: it becomes its position. *)
  Scheduler.emit spec ~root:0 (fun k i ->
      seq.(k) <- paths.(i);
      key.(i) <- k);
  (seq, if order then exceptions f key else [||])

let sequence ?ident ~strategy symbols f =
  fst (sequence_gen ~order:false ?ident ~strategy symbols f)

let sequence_ordered ?ident ~strategy symbols f =
  sequence_gen ~order:true ?ident ~strategy symbols f

let flatten ?(value_mode = Hashed) ?(scratch = create_scratch ())
    ?(sorted = false) symbols t =
  flatten_with symbols scratch ~twins:true ~sorted value_mode t

let encode ?value_mode ?scratch ?ident ~strategy symbols t =
  sequence ?ident ~strategy symbols (flatten ?value_mode ?scratch symbols t)

(* Without identical-sibling flags a fresh scratch costs only the size
   of the record. *)
let paths_of_tree ?(value_mode = Hashed) symbols t =
  (flatten_with symbols (create_scratch ()) ~twins:false ~sorted:false
     value_mode t)
    .fpaths
