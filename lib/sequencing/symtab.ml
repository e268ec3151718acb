(* Designators and paths as structure-of-arrays, each with an
   open-addressing index of ids: a power-of-two [int array] probed
   linearly, at most half full, -1 marking an empty slot.  An index
   stores ids only; the key of an id is read back from the columns
   (name and kind for a designator, parent and last designator for a
   path), so a binding allocates nothing.  Path 0 is epsilon, which has
   no key and is not indexed.  [first_kid]/[next_kid] thread the element
   (non-value) children of each path, newest first, so the table can be
   walked as a schema path trie.  Only the build's sequential flatten
   phase (or a snapshot load) writes; everything else reads, so no
   synchronisation is needed. *)
type t = {
  mutable desig_index : int array;
  mutable names : string array;
  mutable is_value : Bytes.t; (* '\001' for a value designator *)
  mutable ndesig : int;
  mutable path_index : int array;
  mutable parents : int array;
  mutable last : int array; (* designator *)
  mutable depths : int array;
  mutable first_kid : int array; (* newest element child, or -1 *)
  mutable next_kid : int array; (* next older element sibling, or -1 *)
  mutable npaths : int;
}

(* Index capacity for [n] keys: a power of two at least [2n]. *)
let index_capacity n =
  let c = ref 8 in
  while !c < 2 * n do
    c := 2 * !c
  done;
  !c

(* Columns with room for [desigs] designators and [paths] paths. *)
let make ~desigs ~paths =
  {
    desig_index = Array.make (index_capacity desigs) (-1);
    names = Array.make desigs "";
    is_value = Bytes.make desigs '\000';
    ndesig = 0;
    path_index = Array.make (index_capacity (paths - 1)) (-1);
    parents = Array.make paths (-1);
    last = Array.make paths (-1);
    depths = Array.make paths 0;
    first_kid = Array.make paths (-1);
    next_kid = Array.make paths (-1);
    npaths = 1;
  }

let create () = make ~desigs:64 ~paths:256
let path_count t = t.npaths

let grow a used fill =
  if used < Array.length a then a
  else begin
    let a' = Array.make (max 8 (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 used;
    a'
  end

(* An integer finaliser: every key bit reaches the low (slot) bits. *)
let mix x =
  let x = (x lxor (x lsr 33)) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let desig_hash kind s =
  mix ((Hashtbl.hash (s : string) lsl 1) lor Char.code kind)

(* Both ids stay far below 2^31, so the key is one machine integer. *)
let path_hash p d = mix ((p lsl 31) lor d)

(* The probe loops are top-level functions, not local closures, so a
   lookup allocates nothing.  Each returns the slot holding the key's
   id, or the empty slot where it would go. *)
let rec desig_slot t kind s i =
  let id = t.desig_index.(i) in
  if id < 0 || (Bytes.get t.is_value id = kind && String.equal t.names.(id) s)
  then i
  else desig_slot t kind s ((i + 1) land (Array.length t.desig_index - 1))

let rec path_slot t p d i =
  let id = t.path_index.(i) in
  if id < 0 || (t.parents.(id) = p && t.last.(id) = d) then i
  else path_slot t p d ((i + 1) land (Array.length t.path_index - 1))

let rec free_slot index i =
  if index.(i) < 0 then i
  else free_slot index ((i + 1) land (Array.length index - 1))

(* An index of [capacity] slots holding ids [first .. last], whose
   keys [hash] gives. *)
let reindex capacity first last hash =
  let index = Array.make capacity (-1) in
  for id = first to last do
    index.(free_slot index (hash id land (capacity - 1))) <- id
  done;
  index

let desig_key t id = desig_hash (Bytes.get t.is_value id) t.names.(id)
let path_key t id = path_hash t.parents.(id) t.last.(id)

module Designator = struct
  type t = int

  let find_slot tbl kind s =
    desig_slot tbl kind s
      (desig_hash kind s land (Array.length tbl.desig_index - 1))

  let intern tbl kind s =
    let i = find_slot tbl kind s in
    let found = tbl.desig_index.(i) in
    if found >= 0 then found
    else begin
      let d = tbl.ndesig in
      tbl.names <- grow tbl.names d "";
      if d = Bytes.length tbl.is_value then
        tbl.is_value <- Bytes.extend tbl.is_value 0 (max 8 d);
      tbl.names.(d) <- s;
      Bytes.set tbl.is_value d kind;
      tbl.ndesig <- d + 1;
      if 2 * (d + 1) > Array.length tbl.desig_index then
        tbl.desig_index <-
          reindex (2 * Array.length tbl.desig_index) 0 d (desig_key tbl)
      else tbl.desig_index.(i) <- d;
      d
    end

  let tag tbl s = intern tbl '\000' s
  let value tbl s = intern tbl '\001' s
  let char_value tbl c = value tbl (String.make 1 c)

  let find tbl kind s =
    match tbl.desig_index.(find_slot tbl kind s) with
    | -1 -> None
    | d -> Some d

  let find_tag tbl s = find tbl '\000' s
  let find_value tbl s = find tbl '\001' s
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

  let find_slot tbl p d =
    path_slot tbl p d (path_hash p d land (Array.length tbl.path_index - 1))

  let child tbl p d =
    let i = find_slot tbl p d in
    let found = tbl.path_index.(i) in
    if found >= 0 then found
    else begin
      let id = tbl.npaths in
      tbl.parents <- grow tbl.parents id (-1);
      tbl.last <- grow tbl.last id (-1);
      tbl.depths <- grow tbl.depths id 0;
      tbl.first_kid <- grow tbl.first_kid id (-1);
      tbl.next_kid <- grow tbl.next_kid id (-1);
      tbl.parents.(id) <- p;
      tbl.last.(id) <- d;
      tbl.depths.(id) <- tbl.depths.(p) + 1;
      if not (Designator.is_value tbl d) then begin
        tbl.next_kid.(id) <- tbl.first_kid.(p);
        tbl.first_kid.(p) <- id
      end;
      tbl.npaths <- id + 1;
      if 2 * id > Array.length tbl.path_index then
        tbl.path_index <-
          reindex (2 * Array.length tbl.path_index) 1 id (path_key tbl)
      else tbl.path_index.(i) <- id;
      id
    end

  let find_child tbl p d =
    match tbl.path_index.(find_slot tbl p d) with -1 -> None | id -> Some id

  let parent tbl p =
    if p = epsilon then invalid_arg "Path.parent: epsilon";
    tbl.parents.(p)

  let tag tbl p =
    if p = epsilon then invalid_arg "Path.tag: epsilon";
    tbl.last.(p)

  let depth tbl p = tbl.depths.(p)

  (* Newest first along the thread, so consing yields ascending ids. *)
  let rec kids_from tbl k acc =
    if k < 0 then acc else kids_from tbl tbl.next_kid.(k) (k :: acc)

  let element_children tbl p = kids_from tbl tbl.first_kid.(p) []

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

let of_dictionary ~kinds ~names ~parents ~desigs =
  let ntable = Array.length names and ndict = Array.length parents in
  if Array.length kinds <> ntable || Array.length desigs <> ndict then
    invalid_arg "dictionary region sizes";
  if ndict = 0 || parents.(0) >= 0 then invalid_arg "dictionary root";
  if desigs.(0) >= 0 then invalid_arg "root entry with a designator";
  let t = make ~desigs:ntable ~paths:ndict in
  let ids = Array.make ntable 0 in
  for j = 0 to ntable - 1 do
    ids.(j) <-
      (match kinds.(j) with
       | 0 -> Designator.tag t names.(j)
       | 1 -> Designator.value t names.(j)
       | _ -> invalid_arg "designator kind out of range")
  done;
  (* A table that spells a designator out more than once interns fewer
     than it holds: trim the columns and the index to what was
     interned. *)
  if t.ndesig < ntable then begin
    t.names <- Array.sub t.names 0 t.ndesig;
    t.is_value <- Bytes.sub t.is_value 0 t.ndesig;
    let capacity = index_capacity t.ndesig in
    if capacity < Array.length t.desig_index then
      t.desig_index <- reindex capacity 0 (t.ndesig - 1) (desig_key t)
  end;
  for i = 1 to ndict - 1 do
    let p = parents.(i) and j = desigs.(i) in
    if p < 0 || p >= i then invalid_arg "dictionary parent order";
    if j < 0 || j >= ntable then invalid_arg "designator id out of range";
    if Path.child t p ids.(j) <> i then invalid_arg "duplicate dictionary entry"
  done;
  t
