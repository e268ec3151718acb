module I32 = Xutil.I32

(* Designators and paths as structure-of-arrays of 32-bit columns
   ([Xutil.I32]), each with an open-addressing index of ids: a
   power-of-two vector probed linearly, at most half full, -1 marking an
   empty slot.  An index stores ids only; the key of an id is read back
   from the columns (name and kind for a designator, parent and last
   designator for a path), so a binding allocates nothing.  Designator
   names are one blob: name [d] is bytes [name_off.(d), name_off.(d + 1))
   of [names], and a lookup compares its key against that slice.  Path 0
   is epsilon, which has no key and is not indexed.
   [first_kid]/[next_kid] thread the element (non-value) children of
   each path, newest first, so the table can be walked as a schema path
   trie.  Only the build's sequential flatten phase (or a snapshot load)
   writes; everything else reads, so no synchronisation is needed. *)
type t = {
  mutable desig_index : I32.t;
  mutable names : Bytes.t; (* every name, back to back, then spare room *)
  mutable name_off : I32.t; (* [ndesig + 1] offsets into [names] *)
  mutable is_value : Bytes.t; (* '\001' for a value designator *)
  mutable ndesig : int;
  mutable path_index : I32.t;
  mutable parents : I32.t;
  mutable last : I32.t; (* designator *)
  mutable depths : I32.t;
  mutable first_kid : I32.t; (* newest element child, or -1 *)
  mutable next_kid : I32.t; (* next older element sibling, or -1 *)
  mutable npaths : int;
}

(* Index capacity for [n] keys: a power of two at least [2n]. *)
let index_capacity n =
  let c = ref 8 in
  while !c < 2 * n do
    c := 2 * !c
  done;
  !c

(* Columns with room for [desigs] designators named in [names], whose
   offsets [name_off] holds, and for [paths] paths, whose parents
   [parents] holds. *)
let make ~desigs ~names ~name_off ~paths ~parents =
  {
    desig_index = I32.make (index_capacity desigs) (-1);
    names;
    name_off;
    is_value = Bytes.make desigs '\000';
    ndesig = 0;
    path_index = I32.make (index_capacity (paths - 1)) (-1);
    parents;
    last = I32.make paths (-1);
    depths = I32.make paths 0;
    first_kid = I32.make paths (-1);
    next_kid = I32.make paths (-1);
    npaths = 1;
  }

let create () =
  make ~desigs:64 ~names:(Bytes.create 512) ~name_off:(I32.make 65 0)
    ~paths:256 ~parents:(I32.make 256 (-1))

let path_count t = t.npaths

(* [v] with room for element [used]. *)
let grow v used fill =
  if used < I32.length v then v
  else I32.extend v (max 8 (2 * I32.length v)) fill

(* Ids and name offsets are 32-bit: a table refuses to outgrow them. *)
let check_id what n =
  if n > I32.max_value then
    invalid_arg (Printf.sprintf "Symtab: more than 2^31 - 1 %s" what)

(* An integer finaliser: every key bit reaches the low (slot) bits. *)
let mix x =
  let x = (x lxor (x lsr 33)) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

(* FNV-1a over bytes [off, off + len) of [b]. *)
let hash_bytes b off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  !h

let desig_hash kind b off len =
  mix ((hash_bytes b off len lsl 1) lor Char.code kind)

(* Both ids stay below 2^31, so the key is one machine integer. *)
let path_hash p d = mix ((p lsl 31) lor d)

let name_start t d = I32.get t.name_off d
let name_length t d = I32.get t.name_off (d + 1) - I32.get t.name_off d

(* Whether [len] bytes of [a] at [i] equal those of [b] at [j]; the
   caller has checked both ranges. *)
let rec same_bytes a i b j len =
  len = 0
  || Bytes.unsafe_get a i = Bytes.unsafe_get b j
     && same_bytes a (i + 1) b (j + 1) (len - 1)

(* [String.compare] of bytes [i, i + la) and [j, j + lb) of [b]:
   bytes, then length. *)
let rec compare_bytes b i la j lb =
  if la = 0 || lb = 0 then Int.compare la lb
  else
    match Char.compare (Bytes.unsafe_get b i) (Bytes.unsafe_get b j) with
    | 0 -> compare_bytes b (i + 1) (la - 1) (j + 1) (lb - 1)
    | c -> c

(* Whether designator [d]'s name is bytes [off, off + len) of [key]. *)
let spells t d key off len =
  name_length t d = len && same_bytes t.names (name_start t d) key off len

(* The probe loops are top-level functions, not local closures, so a
   lookup allocates nothing.  Each returns the slot holding the key's
   id, or the empty slot where it would go. *)
let rec desig_slot t kind key off len i =
  let id = I32.get t.desig_index i in
  if id < 0 || (Bytes.get t.is_value id = kind && spells t id key off len)
  then i
  else
    desig_slot t kind key off len
      ((i + 1) land (I32.length t.desig_index - 1))

let rec path_slot t p d i =
  let id = I32.get t.path_index i in
  if id < 0 || (I32.get t.parents id = p && I32.get t.last id = d) then i
  else path_slot t p d ((i + 1) land (I32.length t.path_index - 1))

let rec free_slot index i =
  if I32.get index i < 0 then i
  else free_slot index ((i + 1) land (I32.length index - 1))

(* An index of [capacity] slots holding ids [first .. last], whose
   keys [hash] gives. *)
let reindex capacity first last hash =
  let index = I32.make capacity (-1) in
  for id = first to last do
    I32.set index (free_slot index (hash id land (capacity - 1))) id
  done;
  index

let desig_key t id =
  desig_hash (Bytes.get t.is_value id) t.names (name_start t id)
    (name_length t id)

let path_key t id = path_hash (I32.get t.parents id) (I32.get t.last id)

module Designator = struct
  type t = int

  let find_slot tbl kind key off len =
    desig_slot tbl kind key off len
      (desig_hash kind key off len land (I32.length tbl.desig_index - 1))

  (* Interns the name held in bytes [off, off + len) of [key]. *)
  let intern tbl kind key off len =
    let i = find_slot tbl kind key off len in
    let found = I32.get tbl.desig_index i in
    if found >= 0 then found
    else begin
      let d = tbl.ndesig in
      let at = name_start tbl d in
      check_id "designators" (d + 1);
      check_id "bytes of designator names" (at + len);
      if at + len > Bytes.length tbl.names then
        tbl.names <-
          Bytes.extend tbl.names 0
            (max (at + len) (2 * Bytes.length tbl.names)
            - Bytes.length tbl.names);
      Bytes.blit key off tbl.names at len;
      tbl.name_off <- grow tbl.name_off (d + 1) 0;
      I32.set tbl.name_off (d + 1) (at + len);
      if d = Bytes.length tbl.is_value then
        tbl.is_value <- Bytes.extend tbl.is_value 0 (max 8 d);
      Bytes.set tbl.is_value d kind;
      tbl.ndesig <- d + 1;
      if 2 * (d + 1) > I32.length tbl.desig_index then
        tbl.desig_index <-
          reindex (2 * I32.length tbl.desig_index) 0 d (desig_key tbl)
      else I32.set tbl.desig_index i d;
      d
    end

  let intern_string tbl kind s =
    intern tbl kind (Bytes.unsafe_of_string s) 0 (String.length s)

  let tag tbl s = intern_string tbl '\000' s
  let value tbl s = intern_string tbl '\001' s
  let char_value tbl c = value tbl (String.make 1 c)

  let find tbl kind s =
    let key = Bytes.unsafe_of_string s in
    let len = String.length s in
    match I32.get tbl.desig_index (find_slot tbl kind key 0 len) with
    | -1 -> None
    | d -> Some d

  let find_tag tbl s = find tbl '\000' s
  let find_value tbl s = find tbl '\001' s
  let is_value tbl d = Bytes.get tbl.is_value d <> '\000'
  let name tbl d =
    Bytes.sub_string tbl.names (name_start tbl d) (name_length tbl d)

  let name_equal tbl d s =
    spells tbl d (Bytes.unsafe_of_string s) 0 (String.length s)

  let name_has_prefix tbl d prefix =
    let len = String.length prefix in
    len <= name_length tbl d
    && same_bytes tbl.names (name_start tbl d) (Bytes.unsafe_of_string prefix)
         0 len

  let compare_names tbl a b =
    match Bool.compare (is_value tbl b) (is_value tbl a) with
    | 0 ->
      compare_bytes tbl.names (name_start tbl a) (name_length tbl a)
        (name_start tbl b) (name_length tbl b)
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
    path_slot tbl p d (path_hash p d land (I32.length tbl.path_index - 1))

  let child tbl p d =
    let i = find_slot tbl p d in
    let found = I32.get tbl.path_index i in
    if found >= 0 then found
    else begin
      let id = tbl.npaths in
      check_id "paths" (id + 1);
      tbl.parents <- grow tbl.parents id (-1);
      tbl.last <- grow tbl.last id (-1);
      tbl.depths <- grow tbl.depths id 0;
      tbl.first_kid <- grow tbl.first_kid id (-1);
      tbl.next_kid <- grow tbl.next_kid id (-1);
      I32.set tbl.parents id p;
      I32.set tbl.last id d;
      I32.set tbl.depths id (I32.get tbl.depths p + 1);
      if not (Designator.is_value tbl d) then begin
        I32.set tbl.next_kid id (I32.get tbl.first_kid p);
        I32.set tbl.first_kid p id
      end;
      tbl.npaths <- id + 1;
      if 2 * id > I32.length tbl.path_index then
        tbl.path_index <-
          reindex (2 * I32.length tbl.path_index) 1 id (path_key tbl)
      else I32.set tbl.path_index i id;
      id
    end

  let find_child tbl p d =
    match I32.get tbl.path_index (find_slot tbl p d) with
    | -1 -> None
    | id -> Some id

  let parent tbl p =
    if p = epsilon then invalid_arg "Path.parent: epsilon";
    I32.get tbl.parents p

  let tag tbl p =
    if p = epsilon then invalid_arg "Path.tag: epsilon";
    I32.get tbl.last p

  let depth tbl p = I32.get tbl.depths p

  (* Newest first along the thread, so consing yields ascending ids. *)
  let rec kids_from tbl k acc =
    if k < 0 then acc else kids_from tbl (I32.get tbl.next_kid k) (k :: acc)

  let element_children tbl p = kids_from tbl (I32.get tbl.first_kid p) []

  let rec ancestor_at_depth tbl p d =
    let dp = depth tbl p in
    if d < 0 || d > dp then invalid_arg "Path.ancestor_at_depth"
    else if d = dp then p
    else ancestor_at_depth tbl (I32.get tbl.parents p) d

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
          match from_root (I32.get tbl.parents a) (I32.get tbl.parents b) with
          | 0 ->
            Designator.compare_names tbl (I32.get tbl.last a)
              (I32.get tbl.last b)
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

let of_dictionary ~kinds ~names ~name_off ~parents ~desigs =
  let ndict = I32.length parents and ntable = I32.length kinds in
  (* A spelled-out dictionary names entry i by table entry i; entry 0,
     epsilon's, names nothing. *)
  let first, desig_of =
    match desigs with Some d -> (0, I32.get d) | None -> (1, Fun.id)
  in
  if
    I32.length name_off <> ntable + 1
    ||
    match desigs with
    | Some d -> I32.length d <> ndict
    | None -> ntable <> ndict
  then invalid_arg "dictionary region sizes";
  if ndict = 0 || I32.get parents 0 >= 0 then invalid_arg "dictionary root";
  if first = 0 && desig_of 0 >= 0 then
    invalid_arg "root entry with a designator";
  if I32.get name_off first < 0 || I32.get name_off ntable > Bytes.length names
  then invalid_arg "dictionary name offsets";
  for j = first to ntable - 1 do
    if I32.get name_off (j + 1) < I32.get name_off j then
      invalid_arg "dictionary name offsets"
  done;
  (* The table adopts [names], [name_off] and [parents].  Designator d's
     name moves to bytes [name_off.(d), name_off.(d + 1)) of [names]: no
     later than where table entry j >= d held it, so each name is read
     before anything overwrites it, and [start] keeps entry j's offset
     past the write of [name_off.(j)]. *)
  let start = ref (I32.get name_off first) in
  I32.set name_off 0 0;
  I32.set parents 0 (-1);
  let t =
    make ~desigs:(ntable - first) ~names ~name_off ~paths:ndict ~parents
  in
  for j = first to ntable - 1 do
    let kind =
      match I32.get kinds j with
      | 0 -> '\000'
      | 1 -> '\001'
      | _ -> invalid_arg "designator kind out of range"
    in
    let stop = I32.get name_off (j + 1) in
    (* Entry j's kind is spent: the slot holds its designator now. *)
    I32.set kinds j (Designator.intern t kind names !start (stop - !start));
    start := stop
  done;
  (* A table that spells a designator out more than once interns fewer
     than it holds, and leaves slack behind the kept names.  Trimming it
     copies every kept name, so the columns are trimmed only when the
     slack passes an eighth of the names; the index always fits what was
     interned. *)
  let kept = name_start t t.ndesig in
  if Bytes.length t.names - kept > kept / 8 then begin
    t.names <- Bytes.sub t.names 0 kept;
    t.name_off <- I32.sub t.name_off 0 (t.ndesig + 1);
    t.is_value <- Bytes.sub t.is_value 0 t.ndesig
  end;
  let capacity = index_capacity t.ndesig in
  if capacity < I32.length t.desig_index then
    t.desig_index <- reindex capacity 0 (t.ndesig - 1) (desig_key t);
  for i = 1 to ndict - 1 do
    let p = I32.get parents i and j = desig_of i in
    if p < 0 || p >= i then invalid_arg "dictionary parent order";
    if j < first || j >= ntable then invalid_arg "designator id out of range";
    if Path.child t p (I32.get kinds j) <> i then
      invalid_arg "duplicate dictionary entry"
  done;
  t
