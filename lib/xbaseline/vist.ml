module T = Xmlcore.Xml_tree
module Encoder = Sequencing.Encoder
module Strategy = Sequencing.Strategy

type t = { labeled : Xindex.Labeled.t; docs : T.t array }

type query_stats = {
  matcher : Xquery.Matcher.stats;
  mutable candidates : int;
  mutable verified : int;
}

let create_stats () =
  { matcher = Xquery.Matcher.create_stats (); candidates = 0; verified = 0 }

let no_stats = create_stats ()

let build docs =
  let symbols = Sequencing.Symtab.create () in
  let trie = Xindex.Trie.create () in
  let scratch = Encoder.create_scratch () in
  let seqs =
    Array.mapi
      (fun i doc ->
        ( Encoder.encode ~scratch ~strategy:Strategy.Depth_first symbols
            (T.sort_by_tag doc),
          i ))
      docs
  in
  Xindex.Trie.bulk_load trie seqs;
  { labeled = Xindex.Labeled.of_trie symbols trie; docs }

let scan t pattern = Xquery.Embedding.filter pattern t.docs

let query_indexed ~stats t pattern =
  let compiled =
    Xquery.Engine.compile ~strategy:Strategy.Depth_first
      ~value_mode:Encoder.Hashed t.labeled pattern
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun q ->
      Xquery.Matcher.run ~mode:Xquery.Matcher.Naive ~stats:stats.matcher
        t.labeled q ~on_doc:(fun d ->
          if not (Hashtbl.mem seen d) then begin
            Hashtbl.replace seen d ();
            stats.candidates <- stats.candidates + 1
          end))
    compiled;
  let result =
    Hashtbl.fold
      (fun d () acc ->
        stats.verified <- stats.verified + 1;
        if Xquery.Embedding.matches pattern t.docs.(d) then d :: acc else acc)
      seen []
  in
  List.sort Stdlib.compare result

let query ?(stats = no_stats) t pattern =
  try query_indexed ~stats t pattern
  with Xquery.Instantiate.Too_many _ ->
    (* Expansion blow-up: degrade to an exact scan, like the main index. *)
    scan t pattern

let node_count t = Xindex.Labeled.node_count t.labeled
let labeled t = t.labeled
