module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module Path = Symtab.Path
module Encoder = Sequencing.Encoder

type t = {
  symbols : Symtab.t;
  docs : int;
  seen : Bytes.t; (* per path id: '\001' if some document has the path *)
  distinct : int; (* paths seen *)
  p : float array; (* per path id: the p_root estimate *)
  weights : (Path.t, float) Hashtbl.t;
}

(* Document counts by path id, kept as floats so the estimates can take
   their room; [of_counts] empties the record it takes them from. *)
type counts = { mutable freq : float array }

let counts n = { freq = Array.make n 0. }
let add_count c id k = c.freq.(id) <- c.freq.(id) +. float_of_int k

(* Estimates for every path of the table ([freq] has one count per
   path), parents first (a path's id is always above its parent's): seen
   paths by frequency, unseen ones decaying from their parent.  Computed
   once, in place of the counts, so pricing only reads; of the counts
   only which paths were seen is kept. *)
let of_counts symbols ~docs c =
  let freq = c.freq in
  c.freq <- [||];
  let n = Array.length freq in
  let seen =
    Bytes.init n (fun id -> if freq.(id) > 0. then '\001' else '\000')
  in
  let distinct = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr distinct) seen;
  let p = freq in
  if n > 0 then p.(0) <- 1.0;
  for id = 1 to n - 1 do
    p.(id) <-
      (if Bytes.get seen id <> '\000' then p.(id) /. float_of_int (max 1 docs)
       else
         let parent = Path.parent symbols (Path.of_int symbols id) in
         p.(Path.to_int parent) *. 0.1)
  done;
  { symbols; docs; seen; distinct = !distinct; p; weights = Hashtbl.create 16 }

(* Counts the documents [keep] selects, each path once per document. *)
let count ?value_mode ?(symbols = Symtab.create ()) ~keep docs =
  let counted = ref 0 in
  let paths =
    Array.mapi
      (fun i d ->
        if keep i then begin
          incr counted;
          Encoder.paths_of_tree ?value_mode symbols d
        end
        else [||])
      docs
  in
  let n = Symtab.path_count symbols in
  let freq = counts n and stamp = Array.make n (-1) in
  Array.iteri
    (fun i ->
      Array.iter (fun p ->
          let p = Path.to_int p in
          if stamp.(p) <> i then begin
            stamp.(p) <- i;
            add_count freq p 1
          end))
    paths;
  of_counts symbols ~docs:!counted freq

let of_documents_array ?value_mode ?symbols docs =
  count ?value_mode ?symbols ~keep:(fun _ -> true) docs

let sample_members ~fraction ~seed n =
  let rng = Random.State.make [| seed |] in
  let m = Array.init n (fun _ -> Random.State.float rng 1.0 < fraction) in
  if n > 0 && not (Array.mem true m) then m.(0) <- true;
  m

let sample ?value_mode ?symbols ~fraction ~seed docs =
  let m = sample_members ~fraction ~seed (Array.length docs) in
  count ?value_mode ?symbols ~keep:(fun i -> m.(i)) docs

let symbols t = t.symbols
let doc_count t = t.docs

let rec p_root t path =
  let id = Path.to_int path in
  if id < Array.length t.p then t.p.(id)
  else p_root t (Path.parent t.symbols path) *. 0.1


let set_weight t path w = Hashtbl.replace t.weights path w

(* The name is resolved once; paths are then matched by designator
   id. *)
let set_tag_weight t name w =
  match D.find_tag t.symbols name with
  | None -> ()
  | Some d ->
    for id = 0 to Bytes.length t.seen - 1 do
      if Bytes.get t.seen id <> '\000' then begin
        let p = Path.of_int t.symbols id in
        if D.equal (Path.tag t.symbols p) d then Hashtbl.replace t.weights p w
      end
    done

let weight t path = try Hashtbl.find t.weights path with Not_found -> 1.0
let priority t path = p_root t path *. weight t path
let strategy t = Sequencing.Strategy.Probability (priority t)

let distinct_paths t = t.distinct
