module I32 = Xutil.I32

(* Element [i] of a vector through [I32]'s primitives, which compile
   inline where [I32.get] and [I32.set] would be calls in the lookup and
   load loops.  Every value written is an id, an offset or -1, all
   checked to fit. *)
let get v i = Int32.to_int (I32.get32 v (4 * i))
let set v i x = I32.set32 v (4 * i) (Int32.of_int x)

(* Designators and paths as structure-of-arrays of 32-bit columns
   ([Xutil.I32]).  Designator names are one blob: name [d] is bytes
   [name_off.(d), name_off.(d + 1)) of [names].  Path 0 is epsilon, which
   has no parent and no last designator.

   How a name or an edge is found depends on where the table came from.
   A built table ([Hashed]) interns, so it keeps an open-addressing
   index of ids per namespace: a power-of-two vector probed linearly, at
   most half full, -1 marking an empty slot, whose keys are read back
   from the columns; [first_kid]/[next_kid] thread each path's element
   children, newest first.  A loaded table ([Sorted]) is read-only and
   hashes nothing.  Its designator ids are (name, kind) ranks, so a name
   is binary-searched among the ids themselves: a value within the block
   a directory of name prefixes picks out, a tag among the tags, whose
   prefixes are all kept.  Each path's children are one
   run of [kids], tags before values and each kind by designator, so an
   edge is binary-searched in its parent's run, after a look at the
   first path its designator ends.  Its paths come in depth order, so
   their depths are a handful of boundaries.  Neither form allocates on
   a lookup.  Only the build's sequential flatten phase (or a snapshot
   load) writes; everything else reads, so no synchronisation is
   needed. *)
type t = {
  mutable names : Bytes.t; (* every name, back to back, then spare room *)
  mutable name_off : I32.t; (* [ndesig + 1] offsets into [names] *)
  mutable is_value : Bytes.t; (* '\001' for a value designator *)
  mutable ndesig : int;
  mutable parents : I32.t;
  mutable last : I32.t; (* designator *)
  mutable npaths : int;
  lookup : lookup;
}

and lookup = Hashed of hashed | Sorted of sorted

and hashed = {
  mutable depths : I32.t;
  mutable desig_index : I32.t;
  mutable path_index : I32.t;
  mutable first_kid : I32.t; (* newest element child, or -1 *)
  mutable next_kid : I32.t; (* next older element sibling, or -1 *)
}

and sorted = {
  name_dir : int array; (* [prefix] of every [dir_step]-th name *)
  tags : I32.t; (* the tag designators, in order *)
  tag_dir : int array; (* [prefix] of every tag's name *)
  kids : I32.t; (* every path but epsilon, by parent, then (kind, designator) *)
  kid_off : I32.t; (* [npaths + 1]: path p's children are
                      [kids.(kid_off.(p) .. kid_off.(p + 1) - 1)] *)
  ends : I32.t; (* per designator, the first path it ends, or -1 *)
  depth_start : I32.t;
      (* the first path of each depth, then [npaths]: a loaded
         dictionary is in depth order *)
}

(* Index capacity for [n] keys: a power of two at least [2n]. *)
let index_capacity n =
  let c = ref 8 in
  while !c < 2 * n do
    c := 2 * !c
  done;
  !c

let create () =
  let paths = 256 in
  {
    names = Bytes.create 512;
    name_off = I32.make 65 0;
    is_value = Bytes.make 64 '\000';
    ndesig = 0;
    parents = I32.make paths (-1);
    last = I32.make paths (-1);
    npaths = 1;
    lookup =
      Hashed
        {
          depths = I32.make paths 0;
          desig_index = I32.make (index_capacity 64) (-1);
          path_index = I32.make (index_capacity (paths - 1)) (-1);
          first_kid = I32.make paths (-1);
          next_kid = I32.make paths (-1);
        };
  }

let path_count t = t.npaths

(* [v] with room for element [used]. *)
let grow v used fill =
  if used < I32.length v then v
  else I32.extend v (max 8 (2 * I32.length v)) fill

(* Ids and name offsets are 32-bit: a table refuses to outgrow them. *)
let check_id what n =
  if n > I32.max_value then
    invalid_arg (Printf.sprintf "Symtab: more than 2^31 - 1 %s" what)

(* A loaded table holds what its snapshot holds. *)
let read_only what =
  invalid_arg (Printf.sprintf "Symtab: a loaded table has no such %s" what)

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

let name_start t d = get t.name_off d
let name_length t d = get t.name_off (d + 1) - name_start t d

(* Whether [len] bytes of [a] at [i] equal those of [b] at [j]; the
   caller has checked both ranges. *)
let rec same_bytes a i b j len =
  len = 0
  || Bytes.unsafe_get a i = Bytes.unsafe_get b j
     && same_bytes a (i + 1) b (j + 1) (len - 1)

(* [String.compare] of bytes [i, i + la) of [a] and [j, j + lb) of [b]:
   bytes, then length. *)
let rec compare_bytes a i la b j lb =
  if la = 0 || lb = 0 then la - lb
  else
    let c = Char.code (Bytes.unsafe_get a i) - Char.code (Bytes.unsafe_get b j) in
    if c = 0 then compare_bytes a (i + 1) (la - 1) b (j + 1) (lb - 1) else c

(* Whether designator [d]'s name is bytes [off, off + len) of [key]. *)
let spells t d key off len =
  name_length t d = len && same_bytes t.names (name_start t d) key off len

(* The first seven bytes of a name as one integer, big-endian and padded
   with zero bytes: a name that sorts before another never has a larger
   prefix. *)
let prefix b off len =
  let k = ref 0 in
  for i = 0 to 6 do
    k :=
      (!k lsl 8)
      lor if i < len then Char.code (Bytes.unsafe_get b (off + i)) else 0
  done;
  !k

(* One directory word per this many names in (name, kind) order. *)
let dir_step = 8

(* The probe and search loops are top-level functions, not local
   closures, so a lookup allocates nothing.  Each probe returns the slot
   holding the key's id, or the empty slot where it would go. *)
let rec desig_slot t h kind key off len i =
  let id = get h.desig_index i in
  if id < 0 || (Bytes.get t.is_value id = kind && spells t id key off len)
  then i
  else
    desig_slot t h kind key off len
      ((i + 1) land (I32.length h.desig_index - 1))

let rec path_slot t h p d i =
  let id = get h.path_index i in
  if id < 0 || (get t.parents id = p && get t.last id = d) then i
  else path_slot t h p d ((i + 1) land (I32.length h.path_index - 1))

let rec free_slot index i =
  if get index i < 0 then i
  else free_slot index ((i + 1) land (I32.length index - 1))

(* An index of [capacity] slots holding ids [first .. last], whose
   keys [hash] gives. *)
let reindex capacity first last hash =
  let index = I32.make capacity (-1) in
  for id = first to last do
    set index (free_slot index (hash id land (capacity - 1))) id
  done;
  index

let desig_key t id =
  desig_hash (Bytes.get t.is_value id) t.names (name_start t id)
    (name_length t id)

let path_key t id = path_hash (get t.parents id) (get t.last id)

(* Designator [d]'s (name, kind) against bytes [off, off + len) of [key]
   as a [kind] designator; tags ('\000') rank before values. *)
let compare_key t d kind key off len =
  match
    compare_bytes t.names (name_start t d) (name_length t d) key off len
  with
  | 0 -> Char.code (Bytes.unsafe_get t.is_value d) - Char.code kind
  | c -> c

let rec search_names t kind key off len lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_key t mid kind key off len in
    if c = 0 then mid
    else if c < 0 then search_names t kind key off len (mid + 1) hi
    else search_names t kind key off len lo mid

(* The tag named by the key, or -1: tags are few and looked up often,
   so each has its prefix in [tag_dir], and a lookup reads one name. *)
let rec scan_tags t s pk key off len i =
  if i >= Array.length s.tag_dir || s.tag_dir.(i) <> pk then -1
  else
    let d = get s.tags i in
    if compare_key t d '\000' key off len = 0 then d
    else scan_tags t s pk key off len (i + 1)

(* The designator named by the key, or -1.  A value's search is narrowed
   by the directory to the blocks whose first names' prefixes bracket
   the key's: a block whose first prefix is below the key's ends at most
   one block later, and one whose first prefix is above it starts past
   it. *)
let find_sorted t s kind key off len =
  let pk = prefix key off len in
  if kind = '\000' then
    scan_tags t s pk key off len
      (Xutil.Binsearch.lower_bound s.tag_dir ~len:(Array.length s.tag_dir) pk)
  else begin
    let nblocks = Array.length s.name_dir in
    let first = Xutil.Binsearch.lower_bound s.name_dir ~len:nblocks pk in
    let past = Xutil.Binsearch.upper_bound s.name_dir ~len:nblocks pk in
    search_names t kind key off len
      (max 0 (first - 1) * dir_step)
      (min t.ndesig (past * dir_step))
  end

(* A child's key in its parent's run: values after tags, each kind by
   designator id. *)
let kid_key t d = (Char.code (Bytes.unsafe_get t.is_value d) lsl 31) lor d

let rec search_kids t s key lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let k = get s.kids mid in
    let c = kid_key t (get t.last k) - key in
    if c = 0 then k
    else if c < 0 then search_kids t s key (mid + 1) hi
    else search_kids t s key lo mid

module Designator = struct
  type t = int

  let find_slot tbl h kind key off len =
    desig_slot tbl h kind key off len
      (desig_hash kind key off len land (I32.length h.desig_index - 1))

  (* The designator named by bytes [off, off + len) of [key], or -1. *)
  let lookup tbl kind key off len =
    match tbl.lookup with
    | Hashed h -> get h.desig_index (find_slot tbl h kind key off len)
    | Sorted s -> find_sorted tbl s kind key off len

  (* Interns the name held in bytes [off, off + len) of [key]. *)
  let intern tbl kind key off len =
    match tbl.lookup with
    | Sorted s ->
      let d = find_sorted tbl s kind key off len in
      if d < 0 then read_only "designator" else d
    | Hashed h ->
      let i = find_slot tbl h kind key off len in
      let found = get h.desig_index i in
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
        set tbl.name_off (d + 1) (at + len);
        if d = Bytes.length tbl.is_value then
          tbl.is_value <- Bytes.extend tbl.is_value 0 (max 8 d);
        Bytes.set tbl.is_value d kind;
        tbl.ndesig <- d + 1;
        if 2 * (d + 1) > I32.length h.desig_index then
          h.desig_index <-
            reindex (2 * I32.length h.desig_index) 0 d (desig_key tbl)
        else set h.desig_index i d;
        d
      end

  let intern_string tbl kind s =
    intern tbl kind (Bytes.unsafe_of_string s) 0 (String.length s)

  let tag tbl s = intern_string tbl '\000' s
  let value tbl s = intern_string tbl '\001' s
  let char_value tbl c = value tbl (String.make 1 c)

  let find tbl kind s =
    match lookup tbl kind (Bytes.unsafe_of_string s) 0 (String.length s) with
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
      compare_bytes tbl.names (name_start tbl a) (name_length tbl a) tbl.names
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

  let find_slot tbl h p d =
    path_slot tbl h p d (path_hash p d land (I32.length h.path_index - 1))

  (* Path [p.d], or -1. *)
  let lookup tbl p d =
    match tbl.lookup with
    | Hashed h -> get h.path_index (find_slot tbl h p d)
    | Sorted s ->
      if d < 0 || d >= tbl.ndesig then -1
      else
        (* Most value designators end one path (96% of DBLP's, 81% of
           XMark's): try the first. *)
        let q = if Designator.is_value tbl d then get s.ends d else 0 in
        if q < 0 || (q > 0 && get tbl.parents q = p) then q
        else
          search_kids tbl s (kid_key tbl d) (get s.kid_off p)
            (get s.kid_off (p + 1))

  let child tbl p d =
    match tbl.lookup with
    | Sorted _ ->
      let id = lookup tbl p d in
      if id < 0 then read_only "path" else id
    | Hashed h ->
      let i = find_slot tbl h p d in
      let found = get h.path_index i in
      if found >= 0 then found
      else begin
        let id = tbl.npaths in
        check_id "paths" (id + 1);
        tbl.parents <- grow tbl.parents id (-1);
        tbl.last <- grow tbl.last id (-1);
        h.depths <- grow h.depths id 0;
        h.first_kid <- grow h.first_kid id (-1);
        h.next_kid <- grow h.next_kid id (-1);
        set tbl.parents id p;
        set tbl.last id d;
        set h.depths id (get h.depths p + 1);
        if not (Designator.is_value tbl d) then begin
          set h.next_kid id (get h.first_kid p);
          set h.first_kid p id
        end;
        tbl.npaths <- id + 1;
        if 2 * id > I32.length h.path_index then
          h.path_index <-
            reindex (2 * I32.length h.path_index) 1 id (path_key tbl)
        else set h.path_index i id;
        id
      end

  let find_child tbl p d =
    match lookup tbl p d with -1 -> None | id -> Some id

  let parent tbl p =
    if p = epsilon then invalid_arg "Path.parent: epsilon";
    get tbl.parents p

  let tag tbl p =
    if p = epsilon then invalid_arg "Path.tag: epsilon";
    get tbl.last p

  (* The depth [k] with [depth_start.(k) <= p < depth_start.(k + 1)]. *)
  let rec depth_at s p lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) lsr 1 in
      if get s.depth_start mid <= p then depth_at s p mid hi
      else depth_at s p lo mid

  let depth tbl p =
    match tbl.lookup with
    | Hashed h -> get h.depths p
    | Sorted s -> depth_at s p 0 (I32.length s.depth_start - 1)

  (* Newest first along the thread, so consing yields ascending ids. *)
  let rec kids_from h k acc =
    if k < 0 then acc else kids_from h (get h.next_kid k) (k :: acc)

  (* The tags of a run come first; the result is unordered. *)
  let rec tag_kids tbl s i stop acc =
    if i >= stop then acc
    else
      let k = get s.kids i in
      if Designator.is_value tbl (get tbl.last k) then acc
      else tag_kids tbl s (i + 1) stop (k :: acc)

  let element_children tbl p =
    match tbl.lookup with
    | Hashed h -> kids_from h (get h.first_kid p) []
    | Sorted s ->
      List.sort Int.compare
        (tag_kids tbl s (get s.kid_off p) (get s.kid_off (p + 1)) [])

  let ancestor_at_depth tbl p d =
    let dp = depth tbl p in
    if d < 0 || d > dp then invalid_arg "Path.ancestor_at_depth";
    let rec up p k = if k = d then p else up (get tbl.parents p) (k - 1) in
    up p dp

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
          match from_root (get tbl.parents a) (get tbl.parents b) with
          | 0 ->
            Designator.compare_names tbl (get tbl.last a)
              (get tbl.last b)
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

(* --- (name, kind) order without hashing --------------------------------- *)

(* A designator table as a dictionary or a table holds it: entry j is a
   tag or a value ([kind.[j]] '\000' or '\001') named by bytes
   [name_off.(j), name_off.(j + 1)) of [names]. *)
type entries = { kind : Bytes.t; names : Bytes.t; name_off : I32.t }

let entry_kind e j = Char.code (Bytes.unsafe_get e.kind j)

(* Entries [j] and [k] by (name, kind). *)
let entry_compare e j k =
  let sj = get e.name_off j and sk = get e.name_off k in
  match
    compare_bytes e.names sj
      (get e.name_off (j + 1) - sj)
      e.names sk
      (get e.name_off (k + 1) - sk)
  with
  | 0 -> entry_kind e j - entry_kind e k
  | c -> c

(* Entry [j]'s sort key at byte [pos] of its name, which is no longer
   than that: the [prefix] from there, how many bytes the name has from
   there (7 for seven or more), and, when that is fewer, the kind.  Keys
   order entries that agree before [pos] as (name, kind) does, except
   that those agreeing on seven bytes more tie. *)
let chunk_key e j pos =
  let start = get e.name_off j + pos in
  let len = min 7 (get e.name_off (j + 1) - start) in
  let bytes =
    if start + 8 <= Bytes.length e.names then
      (* Eight bytes at once; the last and those past the name masked. *)
      Int64.to_int
        (Int64.shift_right_logical (Bytes.get_int64_be e.names start) 8)
      land lnot ((1 lsl (8 * (7 - len))) - 1)
    else prefix e.names start len
  in
  (((bytes lsl 3) lor len) lsl 1) lor if len < 7 then entry_kind e j else 0

(* Whether keys tie on seven bytes that the names continue past. *)
let continues key = key land 0b1110 = 0b1110

(* [v.(lo .. hi - 1)] by the keys in [key] (indexed by entry), stably:
   a most-significant-digit radix sort through [tmp], on the byte of the
   keys' first differing bit, that hands runs of at most 32 to an
   insertion sort.  Each level takes a lower byte, so [counts] holds one
   count array per byte of a key. *)
let rec sort_by_key key v tmp counts lo hi =
  if hi - lo <= 32 then
    for i = lo + 1 to hi - 1 do
      let j = get v i in
      let k = ref i in
      while !k > lo && key.(get v (!k - 1)) > key.(j) do
        set v !k (get v (!k - 1));
        decr k
      done;
      set v !k j
    done
  else begin
    let k0 = key.(get v lo) and diff = ref 0 in
    for i = lo + 1 to hi - 1 do
      diff := !diff lor (key.(get v i) lxor k0)
    done;
    if !diff <> 0 then begin
      let shift = ref 0 in
      while !shift < 56 && !diff lsr (!shift + 8) <> 0 do
        shift := !shift + 8
      done;
      let shift = !shift in
      (* Zero on entry, and zeroed again on the way out. *)
      let count = counts.(shift / 8) in
      for i = lo to hi - 1 do
        let c = (key.(get v i) lsr shift) land 0xff in
        count.(c) <- count.(c) + 1
      done;
      let at = ref lo in
      for c = 0 to 255 do
        let n = count.(c) in
        count.(c) <- !at;
        at := !at + n
      done;
      for i = lo to hi - 1 do
        let j = get v i in
        let c = (key.(j) lsr shift) land 0xff in
        set tmp count.(c) j;
        count.(c) <- count.(c) + 1
      done;
      I32.blit tmp lo v lo (hi - lo);
      (* [count.(c)] is where bucket [c] ends. *)
      let start = ref lo in
      for c = 0 to 255 do
        let stop = count.(c) in
        count.(c) <- 0;
        if stop - !start > 1 then sort_by_key key v tmp counts !start stop;
        start := stop
      done
    end
  end

(* Sorts [v.(lo .. hi - 1)], entries whose names agree before byte
   [pos], by (name, kind), seven bytes a level: by key, then each run of
   ties again from seven bytes on.  [same] gets, by position, whether an
   entry repeats the one before it.  The first level reads the keys in
   table order, so the name bytes come in blob order. *)
let rec sort_entries e key v tmp same counts lo hi pos =
  for i = lo to hi - 1 do
    let j = get v i in
    key.(j) <- chunk_key e j pos
  done;
  sort_by_key key v tmp counts lo hi;
  (* Runs are read off the keys before sorting one rewrites its keys. *)
  let run = ref lo in
  while !run < hi do
    let k = key.(get v !run) in
    let next = ref (!run + 1) in
    while !next < hi && key.(get v !next) = k do
      incr next
    done;
    Bytes.set same !run '\000';
    if !next - !run > 1 then
      if continues k then
        sort_entries e key v tmp same counts !run !next (pos + 7)
      else Bytes.fill same (!run + 1) (!next - !run - 1) '\001';
    run := !next
  done

let sort_ids e n v tmp same m =
  sort_entries e (Array.make n 0) v tmp same
    (Array.init 8 (fun _ -> Array.make 256 0))
    0 m 0

let name_order t =
  let n = t.ndesig in
  let order = I32.make n 0 in
  for d = 0 to n - 1 do
    set order d d
  done;
  (match t.lookup with
   | Sorted _ -> ()
   | Hashed _ ->
     sort_ids
       { kind = t.is_value; names = t.names; name_off = t.name_off }
       n order (I32.make n 0) (Bytes.create n) n);
  (order, t.names, t.name_off)

exception Out_of_order

let of_dictionary ~kinds ~names ~name_off ~parents ~desigs =
  let ndict = I32.length parents and ntable = I32.length kinds in
  if I32.length name_off <> ntable + 1 || I32.length desigs <> ndict then
    invalid_arg "dictionary region sizes";
  if ndict = 0 || get parents 0 >= 0 then invalid_arg "dictionary root";
  if get desigs 0 >= 0 then invalid_arg "root entry with a designator";
  if get name_off 0 < 0 || get name_off ntable > Bytes.length names then
    invalid_arg "dictionary name offsets";
  for j = 0 to ntable - 1 do
    if get name_off (j + 1) < get name_off j then
      invalid_arg "dictionary name offsets";
    if get kinds j <> 0 && get kinds j <> 1 then
      invalid_arg "designator kind out of range"
  done;
  let is_value =
    Bytes.init ntable (fun j -> if get kinds j = 0 then '\000' else '\001')
  in
  (* Designators are numbered in (name, kind) order: a table in strict
     order is one designator an entry, named in place. *)
  let e = { kind = is_value; names; name_off } in
  for j = 1 to ntable - 1 do
    if entry_compare e (j - 1) j >= 0 then raise Out_of_order
  done;
  let ndesig = ntable in
  (* Each entry's designator becomes its path's last designator, in a
     column the table takes over. *)
  let last = desigs in
  set last 0 (-1);
  set parents 0 (-1);
  (* One pass checks the entries and counts: the paths of each
     designator in [a], the children of each path in [kid_off] (shifted
     by one), and each path's depth in [b].  A dictionary lists every
     depth's paths before the next depth's, so the first path of each
     depth is all a loaded table keeps of them. *)
  let a = I32.make (max ndesig ndict) 0 and b = I32.make (max ndesig ndict) 0 in
  let kid_off = I32.make (ndict + 1) 0 and ends = I32.make ndesig (-1) in
  for i = 1 to ndict - 1 do
    let p = get parents i and d = get last i in
    if d < 0 || d >= ndesig then invalid_arg "designator id out of range";
    if p < 0 || p >= i then invalid_arg "dictionary parent order";
    set b i (get b p + 1);
    if get b i < get b (i - 1) then invalid_arg "dictionary depth order";
    if get ends d < 0 then set ends d i;
    set a d (get a d + 1);
    set kid_off (p + 1) (get kid_off (p + 1) + 1)
  done;
  let depth_start = I32.make (get b (ndict - 1) + 2) ndict in
  set depth_start 0 0;
  for i = 1 to ndict - 1 do
    if get b i > get b (i - 1) then set depth_start (get b i) i
  done;
  (* Every path's children as one run: a stable counting sort of the
     paths by (kind, designator) into [b], then one by parent, whose
     counts become the run offsets. *)
  let at = ref 0 in
  for value = 0 to 1 do
    for d = 0 to ndesig - 1 do
      if Char.code (Bytes.get is_value d) = value then begin
        let n = get a d in
        set a d !at;
        at := !at + n
      end
    done
  done;
  for i = 1 to ndict - 1 do
    let d = get last i in
    set b (get a d) i;
    set a d (get a d + 1)
  done;
  for p = 1 to ndict do
    set kid_off p (get kid_off p + get kid_off (p - 1))
  done;
  (* [kid_off.(p)] is now where p's run starts; filling the run moves it
     to where the run ends, which is where p + 1's starts. *)
  let kids = I32.make (ndict - 1) 0 in
  for r = 0 to ndict - 2 do
    let i = get b r in
    let p = get parents i in
    set kids (get kid_off p) i;
    set kid_off p (get kid_off p + 1)
  done;
  I32.blit kid_off 0 kid_off 1 ndict;
  set kid_off 0 0;
  for r = 1 to ndict - 2 do
    let x = get kids (r - 1) and y = get kids r in
    if get parents x = get parents y && get last x = get last y
    then invalid_arg "duplicate dictionary entry"
  done;
  let name_prefix d =
    prefix names (get name_off d) (get name_off (d + 1) - get name_off d)
  in
  let name_dir =
    Array.init ((ndesig + dir_step - 1) / dir_step) (fun b ->
        name_prefix (b * dir_step))
  in
  let ntags = ref 0 in
  for d = 0 to ndesig - 1 do
    if Bytes.get is_value d = '\000' then incr ntags
  done;
  let tags = I32.make !ntags 0 and tag_dir = Array.make !ntags 0 in
  let k = ref 0 in
  for d = 0 to ndesig - 1 do
    if Bytes.get is_value d = '\000' then begin
      set tags !k d;
      tag_dir.(!k) <- name_prefix d;
      incr k
    end
  done;
  {
    names;
    name_off;
    is_value;
    ndesig;
    parents;
    last;
    npaths = ndict;
    lookup =
      Sorted
        {
          name_dir;
          tags;
          tag_dir;
          kids;
          kid_off;
          ends;
          depth_start;
        };
  }
