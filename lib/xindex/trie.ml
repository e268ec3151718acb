module Path = Sequencing.Symtab.Path
module Ivec = Xutil.Ivec

type t = {
  mutable paths : Path.t array; (* node id -> path; node 0 is the root *)
  mutable nodes : int; (* including the root *)
  edges : (int, int) Hashtbl.t; (* (parent << 31) | path  ->  child node *)
  doc_nodes : Ivec.t;
  doc_ids : Ivec.t;
}

let create () =
  {
    paths = Array.make 1024 Path.epsilon;
    nodes = 1;
    edges = Hashtbl.create 4096;
    doc_nodes = Ivec.create ();
    doc_ids = Ivec.create ();
  }

let edge_key parent path =
  (* Node and path ids stay well below 2^31 at any realistic scale. *)
  (parent lsl 31) lor path

let child_of t parent path =
  Hashtbl.find_opt t.edges (edge_key parent (Path.to_int path))

let add_child t parent path =
  let id = t.nodes in
  if id = Array.length t.paths then
    t.paths <- Array.append t.paths (Array.make id Path.epsilon);
  t.paths.(id) <- path;
  t.nodes <- id + 1;
  Hashtbl.replace t.edges (edge_key parent (Path.to_int path)) id;
  id

let insert t seq ~doc =
  if Array.length seq = 0 then invalid_arg "Trie.insert: empty sequence";
  let node = ref 0 in
  Array.iter
    (fun p ->
      node :=
        (match child_of t !node p with
         | Some c -> c
         | None -> add_child t !node p))
    seq;
  Ivec.push t.doc_nodes !node;
  Ivec.push t.doc_ids doc

let compare_seq (a, _) (b, _) =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if i >= la || i >= lb then Stdlib.compare la lb
    else
      let c = Path.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let bulk_load t seqs =
  let sorted = Array.copy seqs in
  Array.sort compare_seq sorted;
  Array.iter (fun (seq, doc) -> insert t seq ~doc) sorted

let node_count t = t.nodes - 1
let doc_count t = Ivec.length t.doc_ids
let path_of t id = t.paths.(id)

let iter_edges t f = Hashtbl.iter (fun key child -> f (key lsr 31) child) t.edges

let doc_entries t =
  Array.init (Ivec.length t.doc_ids) (fun i ->
      (Ivec.get t.doc_nodes i, Ivec.get t.doc_ids i))
