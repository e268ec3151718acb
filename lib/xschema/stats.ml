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

(* Estimates for every path of the table ([freq] has one count per
   path), parents first (a path's id is always above its parent's): seen
   paths by frequency, unseen ones decaying from their parent.  Computed
   once, so pricing only reads; of the counts only which paths were seen
   is kept. *)
let of_frequencies symbols ~docs freq =
  let n = Array.length freq in
  let p = Array.make n 1.0 in
  for id = 1 to n - 1 do
    p.(id) <-
      (if freq.(id) > 0 then
         float_of_int freq.(id) /. float_of_int (max 1 docs)
       else
         let parent = Path.parent symbols (Path.of_int symbols id) in
         p.(Path.to_int parent) *. 0.1)
  done;
  let seen =
    Bytes.init n (fun id -> if freq.(id) > 0 then '\001' else '\000')
  in
  let distinct =
    Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 freq
  in
  { symbols; docs; seen; distinct; p; weights = Hashtbl.create 16 }

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
  let freq = Array.make n 0 and stamp = Array.make n (-1) in
  Array.iteri
    (fun i ->
      Array.iter (fun p ->
          let p = Path.to_int p in
          if stamp.(p) <> i then begin
            stamp.(p) <- i;
            freq.(p) <- freq.(p) + 1
          end))
    paths;
  of_frequencies symbols ~docs:!counted freq

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

let set_tag_weight t name w =
  for id = 0 to Bytes.length t.seen - 1 do
    if Bytes.get t.seen id <> '\000' then begin
      let p = Path.of_int t.symbols id in
      let d = Path.tag t.symbols p in
      if (not (D.is_value t.symbols d)) && D.name_equal t.symbols d name then
        Hashtbl.replace t.weights p w
    end
  done

let weight t path = try Hashtbl.find t.weights path with Not_found -> 1.0
let priority t path = p_root t path *. weight t path
let strategy t = Sequencing.Strategy.Probability (priority t)

let distinct_paths t = t.distinct
