module D = Xmlcore.Designator

type t = int

(* Structure-of-arrays intern table.  Entry 0 is epsilon.  [kids] keeps the
   element (non-value) children of each path so the table can be walked as
   a schema path trie.

   Same synchronisation story as [Designator]: the table is mutated by
   builds and read by query compiles, possibly from different domains at
   once (background compaction in `Xlog` builds while server workers
   compile plans).  The read path is lock-free — [find_child] and the
   already-interned fast path of [child] probe an immutable persistent
   map published through an [Atomic.t], and the reverse arrays
   ([parents]/[tags]/[depths]/[kids]) are atomically published so grows
   never tear under a reader.  Only interning a genuinely new path takes
   [m]; the parallel encode phase of [Xseq.build] and batched query
   compilation run entirely on the lock-free path (DESIGN.md §9/§14). *)

let dummy_tag = D.tag ""

(* Keyed by (parent path, designator) packed into one int, so a lookup
   compares machine integers and allocates no tuple.  Both ids stay far
   below 2^31. *)
module PMap = Map.Make (Int)

let key p d = (p lsl 31) lor D.to_int d

let map : int PMap.t Atomic.t = Atomic.make PMap.empty
let parents : int array Atomic.t = Atomic.make (Array.make 4096 (-1))
let tags : D.t array Atomic.t = Atomic.make (Array.make 4096 dummy_tag)
let depths : int array Atomic.t = Atomic.make (Array.make 4096 0)

let kids : int list array Atomic.t = Atomic.make (Array.make 4096 [])
(* [kids] slots mutate on insert (prepend), unlike the write-once slots
   of the other arrays.  All slot updates happen under [m]; a lock-free
   reader may observe a list missing children interned concurrently
   with its read — benign, because query compilation only walks paths
   of an index published before the compile began, and a path's
   children are fully interned before any index over them is
   published. *)

let next = Atomic.make 1 (* entry 0 = epsilon *)
let epsilon = 0
let m = Mutex.create ()

let grow id =
  let ps = Atomic.get parents in
  let cap = Array.length ps in
  if id >= cap then begin
    let extend : 'a. 'a array Atomic.t -> 'a -> unit =
     fun a fill ->
      let old = Atomic.get a in
      let a' = Array.make (cap * 2) fill in
      Array.blit old 0 a' 0 cap;
      Atomic.set a a'
    in
    extend parents (-1);
    extend tags dummy_tag;
    extend depths 0;
    extend kids []
  end

let child p d =
  let key = key p d in
  (* Lock-free fast path: the path is already interned. *)
  match PMap.find_opt key (Atomic.get map) with
  | Some id -> id
  | None ->
    Mutex.protect m (fun () ->
        match PMap.find_opt key (Atomic.get map) with
        | Some id -> id
        | None ->
          let id = Atomic.get next in
          grow id;
          (* Reverse-array writes precede the map publication: a reader
             that acquires [id] through the map sees them. *)
          (Atomic.get parents).(id) <- p;
          (Atomic.get tags).(id) <- d;
          (Atomic.get depths).(id) <- (Atomic.get depths).(p) + 1;
          if not (D.is_value d) then begin
            let ks = Atomic.get kids in
            ks.(p) <- id :: ks.(p)
          end;
          Atomic.set map (PMap.add key id (Atomic.get map));
          Atomic.set next (id + 1);
          id)

let find_child p d = PMap.find_opt (key p d) (Atomic.get map)

let parent p =
  if p = epsilon then invalid_arg "Path.parent: epsilon";
  (Atomic.get parents).(p)

let tag p : D.t =
  if p = epsilon then invalid_arg "Path.tag: epsilon";
  (Atomic.get tags).(p)

let depth p = (Atomic.get depths).(p)
let element_children p = List.rev (Atomic.get kids).(p)

let rec ancestor_at_depth p d =
  let dp = depth p in
  if d < 0 || d > dp then invalid_arg "Path.ancestor_at_depth"
  else if d = dp then p
  else ancestor_at_depth (Atomic.get parents).(p) d

let is_prefix p q = depth p <= depth q && ancestor_at_depth q (depth p) = p
let is_strict_prefix p q = depth p < depth q && is_prefix p q
let of_list ds = List.fold_left child epsilon ds

let to_list p =
  let rec loop p acc =
    if p = epsilon then acc else loop (parent p) (tag p :: acc)
  in
  loop p []

let equal (a : int) b = a = b
let compare (a : int) b = Stdlib.compare a b

let lex_compare a b =
  let ps = Atomic.get parents in
  let rec prefix_at p d target =
    (* designator of [p]'s ancestor at depth [target] *)
    if d = target then tag p else prefix_at ps.(p) (d - 1) target
  in
  let da = depth a and db = depth b in
  let rec loop d =
    if d > da || d > db then Stdlib.compare da db
    else
      let c = D.compare (prefix_at a da d) (prefix_at b db d) in
      if c <> 0 then c else loop (d + 1)
  in
  if a = b then 0 else loop 1

let hash (p : int) = p
let to_int p = p
let count () = Atomic.get next

let of_int i =
  if i < 0 || i >= Atomic.get next then invalid_arg "Path.of_int: unknown id";
  i

let to_string p =
  if p = epsilon then "ε"
  else
    String.concat "."
      (List.map (fun d -> Format.asprintf "%a" D.pp d) (to_list p))

let pp ppf p = Format.pp_print_string ppf (to_string p)
