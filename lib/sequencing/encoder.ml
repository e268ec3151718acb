module D = Xmlcore.Designator
module T = Xmlcore.Xml_tree

type value_mode = Hashed | Text

let value_end_marker = D.value "\x00end"

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
   nothing to reset between groups or records.  They grow to the number
   of interned paths on the first sibling group, so one scratch should
   serve many records. *)
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

let mark_twins s i =
  let stop = s.sstop.(i) and first = i + 1 in
  (* Only a node with at least two children can have identical ones. *)
  if first < stop && s.sstop.(first) < stop then begin
    let width = Path.count () and cap = Array.length s.seen in
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

(* Pre-order: a node's path is interned before any of its children's,
   and value designators in document order.  A text value becomes a
   chain of character designators closed by [value_end_marker]; its
   characters are interned last to first, the order in which the
   recursive tree expansion this walk replaced created them. *)
let rec visit s ~twins mode parent t =
  match t with
  | T.Element (d, cs) ->
    let i = s.n in
    push s (Path.child parent d);
    let path = s.spaths.(i) in
    List.iter (visit s ~twins mode path) cs;
    s.sstop.(i) <- s.n;
    if twins then mark_twins s i
  | T.Value v ->
    (match mode with
     | Hashed ->
       push s (Path.child parent (D.value v));
       s.sstop.(s.n - 1) <- s.n
     | Text ->
       let len = String.length v in
       let ds = Array.make len value_end_marker in
       for k = len - 1 downto 0 do
         ds.(k) <- D.char_value v.[k]
       done;
       let first = s.n in
       let p = ref parent in
       Array.iter
         (fun d ->
           p := Path.child !p d;
           push s !p)
         ds;
       push s (Path.child !p value_end_marker);
       for k = first to s.n - 1 do
         s.sstop.(k) <- s.n
       done)

let flatten_with s ~twins value_mode t =
  s.n <- 0;
  visit s ~twins value_mode Path.epsilon t;
  {
    fpaths = Array.sub s.spaths 0 s.n;
    stop = Array.sub s.sstop 0 s.n;
    twin = Bytes.sub s.stwin 0 s.n;
  }

let priority_fun strategy paths =
  match strategy with
  | Strategy.Depth_first -> fun i -> -.float_of_int i
  | Strategy.Breadth_first ->
    fun i -> -.float_of_int ((Path.depth paths.(i) * (1 lsl 26)) + i)
  | Strategy.Random seed ->
    let salt = Array.fold_left (fun h p -> (h * 31) + Path.to_int p) 17 paths in
    let rng = Random.State.make [| seed; salt |] in
    let prios = Array.map (fun _ -> Random.State.float rng 1.0) paths in
    fun i -> prios.(i)
  | Strategy.Probability f -> fun i -> f paths.(i)

let sequence ?(ident = fun _ -> false) ~strategy f =
  let paths = f.fpaths in
  let spec =
    {
      Scheduler.prio = priority_fun strategy paths;
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

let flatten ?(value_mode = Hashed) ?(scratch = create_scratch ()) t =
  flatten_with scratch ~twins:true value_mode t

let encode ?value_mode ?scratch ?ident ~strategy t =
  sequence ?ident ~strategy (flatten ?value_mode ?scratch t)

(* Without identical-sibling flags a fresh scratch costs only the size
   of the record. *)
let paths_of_tree ?(value_mode = Hashed) t =
  (flatten_with (create_scratch ()) ~twins:false value_mode t).fpaths
