module SH = Hashtbl.Make (String)
module IH = Hashtbl.Make (Int)

(* Designators and paths as structure-of-arrays with a hash index each.
   Path 0 is epsilon.  [kids] keeps the element (non-value) children of
   each path, newest first, so the table can be walked as a schema path
   trie.  Only the build's sequential flatten phase (or a snapshot load)
   writes; everything else reads, so no synchronisation is needed. *)
type t = {
  tags : int SH.t;
  values : int SH.t;
  mutable names : string array;
  mutable is_value : Bytes.t; (* '\001' for a value designator *)
  mutable ndesig : int;
  edges : int IH.t; (* (parent path lsl 31) lor designator -> path *)
  mutable parents : int array;
  mutable last : int array; (* designator *)
  mutable depths : int array;
  mutable kids : int list array;
  mutable npaths : int;
}

let create () =
  {
    tags = SH.create 64;
    values = SH.create 256;
    names = Array.make 64 "";
    is_value = Bytes.make 64 '\000';
    ndesig = 0;
    edges = IH.create 1024;
    parents = Array.make 256 (-1);
    last = Array.make 256 (-1);
    depths = Array.make 256 0;
    kids = Array.make 256 [];
    npaths = 1;
  }

let path_count t = t.npaths

let grow a used fill =
  if used < Array.length a then a
  else begin
    let a' = Array.make (2 * Array.length a) fill in
    Array.blit a 0 a' 0 used;
    a'
  end

module Designator = struct
  type t = int

  let intern tbl index kind s =
    match SH.find_opt index s with
    | Some d -> d
    | None ->
      let d = tbl.ndesig in
      tbl.names <- grow tbl.names d "";
      if d = Bytes.length tbl.is_value then
        tbl.is_value <- Bytes.extend tbl.is_value 0 d;
      tbl.names.(d) <- s;
      Bytes.set tbl.is_value d kind;
      SH.replace index s d;
      tbl.ndesig <- d + 1;
      d

  let tag tbl s = intern tbl tbl.tags '\000' s
  let value tbl s = intern tbl tbl.values '\001' s
  let char_value tbl c = value tbl (String.make 1 c)
  let find_tag tbl s = SH.find_opt tbl.tags s
  let find_value tbl s = SH.find_opt tbl.values s
  let is_value tbl d = Bytes.get tbl.is_value d <> '\000'
  let name tbl d = tbl.names.(d)

  let compare_names tbl a b =
    match Bool.compare (is_value tbl b) (is_value tbl a) with
    | 0 -> String.compare (name tbl a) (name tbl b)
    | c -> c

  let equal (a : int) b = a = b

  let pp tbl ppf d =
    if is_value tbl d then Format.fprintf ppf "v(%s)" (name tbl d)
    else Format.pp_print_string ppf (name tbl d)
end

module Path = struct
  type t = int

  let epsilon = 0

  (* Both ids stay far below 2^31, so the key is one machine integer. *)
  let key p d = (p lsl 31) lor d

  let child tbl p d =
    let k = key p d in
    match IH.find_opt tbl.edges k with
    | Some id -> id
    | None ->
      let id = tbl.npaths in
      tbl.parents <- grow tbl.parents id (-1);
      tbl.last <- grow tbl.last id (-1);
      tbl.depths <- grow tbl.depths id 0;
      tbl.kids <- grow tbl.kids id [];
      tbl.parents.(id) <- p;
      tbl.last.(id) <- d;
      tbl.depths.(id) <- tbl.depths.(p) + 1;
      if not (Designator.is_value tbl d) then
        tbl.kids.(p) <- id :: tbl.kids.(p);
      IH.replace tbl.edges k id;
      tbl.npaths <- id + 1;
      id

  let find_child tbl p d = IH.find_opt tbl.edges (key p d)

  let parent tbl p =
    if p = epsilon then invalid_arg "Path.parent: epsilon";
    tbl.parents.(p)

  let tag tbl p =
    if p = epsilon then invalid_arg "Path.tag: epsilon";
    tbl.last.(p)

  let depth tbl p = tbl.depths.(p)
  let element_children tbl p = List.rev tbl.kids.(p)

  let rec ancestor_at_depth tbl p d =
    let dp = depth tbl p in
    if d < 0 || d > dp then invalid_arg "Path.ancestor_at_depth"
    else if d = dp then p
    else ancestor_at_depth tbl tbl.parents.(p) d

  let is_prefix tbl p q =
    depth tbl p <= depth tbl q && ancestor_at_depth tbl q (depth tbl p) = p

  let is_strict_prefix tbl p q = depth tbl p < depth tbl q && is_prefix tbl p q
  let of_list tbl ds = List.fold_left (child tbl) epsilon ds

  let to_list tbl p =
    let rec loop p acc =
      if p = epsilon then acc else loop (parent tbl p) (tag tbl p :: acc)
    in
    loop p []

  let equal (a : int) b = a = b
  let compare (a : int) b = Int.compare a b

  let lex_compare tbl a b =
    if a = b then 0
    else begin
      let da = depth tbl a and db = depth tbl b in
      let a' = ancestor_at_depth tbl a (min da db)
      and b' = ancestor_at_depth tbl b (min da db) in
      (* Compare the equal-depth prefixes from the root down. *)
      let rec from_root a b =
        if a = b then 0
        else
          match from_root tbl.parents.(a) tbl.parents.(b) with
          | 0 -> Designator.compare_names tbl tbl.last.(a) tbl.last.(b)
          | c -> c
      in
      match from_root a' b' with 0 -> Int.compare da db | c -> c
    end

  let to_int p = p

  let of_int tbl i =
    if i < 0 || i >= tbl.npaths then invalid_arg "Path.of_int: unknown id";
    i

  let to_string tbl p =
    if p = epsilon then "ε"
    else
      String.concat "."
        (List.map (Format.asprintf "%a" (Designator.pp tbl)) (to_list tbl p))
end
