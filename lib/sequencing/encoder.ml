module D = Symtab.Designator
module Path = Symtab.Path
module T = Xmlcore.Xml_tree

type value_mode = Hashed | Text

let value_end = "\x00end"

(* A record flattened in pre-order.  The children of node [i] are
   [i + 1], then [stop.(c)] after each child [c], while below
   [stop.(i)]. *)
type flat = {
  fpaths : Path.t array;
  stop : int array; (* one past the last node of the subtree *)
  twin : Bytes.t; (* '\001' where a sibling carries the same path *)
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
    s.stwin <- Bytes.extend s.stwin 0 i
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
   [value_end] designator. *)
let rec visit symbols s ~twins mode parent t =
  match t with
  | T.Element (name, cs) ->
    let i = s.n in
    push s (Path.child symbols parent (D.tag symbols name));
    let path = s.spaths.(i) in
    List.iter (visit symbols s ~twins mode path) cs;
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

let flatten_with symbols s ~twins value_mode t =
  s.n <- 0;
  visit symbols s ~twins value_mode Path.epsilon t;
  {
    fpaths = Array.sub s.spaths 0 s.n;
    stop = Array.sub s.sstop 0 s.n;
    twin = Bytes.sub s.stwin 0 s.n;
  }

let priority_fun symbols strategy paths =
  match strategy with
  | Strategy.Depth_first -> fun i -> -.float_of_int i
  | Strategy.Breadth_first ->
    fun i -> -.float_of_int ((Path.depth symbols paths.(i) * (1 lsl 26)) + i)
  | Strategy.Random seed ->
    let salt = Array.fold_left (fun h p -> (h * 31) + Path.to_int p) 17 paths in
    let rng = Random.State.make [| seed; salt |] in
    let prios = Array.map (fun _ -> Random.State.float rng 1.0) paths in
    fun i -> prios.(i)
  | Strategy.Probability f -> fun i -> f paths.(i)

let sequence ?(ident = fun _ -> false) ~strategy symbols f =
  let paths = f.fpaths in
  let spec =
    {
      Scheduler.prio = priority_fun symbols strategy paths;
      depth = (fun i -> Path.depth symbols paths.(i));
      path_id = (fun i -> Path.to_int paths.(i));
      rank = Fun.id;
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
  List.iteri (fun k i -> seq.(k) <- paths.(i)) (Scheduler.emit spec ~root:0);
  seq

let flatten ?(value_mode = Hashed) ?(scratch = create_scratch ()) symbols t =
  flatten_with symbols scratch ~twins:true value_mode t

let encode ?value_mode ?scratch ?ident ~strategy symbols t =
  sequence ?ident ~strategy symbols (flatten ?value_mode ?scratch symbols t)

(* Without identical-sibling flags a fresh scratch costs only the size
   of the record. *)
let paths_of_tree ?(value_mode = Hashed) symbols t =
  (flatten_with symbols (create_scratch ()) ~twins:false value_mode t).fpaths
