module Symtab = Sequencing.Symtab
module Path = Symtab.Path
module Encoder = Sequencing.Encoder

type t = {
  symbols : Symtab.t; (* every path of the documents *)
  postings : (Path.t, int array) Hashtbl.t; (* path -> sorted doc ids *)
  docs : Xmlcore.Xml_tree.t array;
}

type query_stats = {
  mutable lookups : int;
  mutable scanned : int;
  mutable verified : int;
}

let create_stats () = { lookups = 0; scanned = 0; verified = 0 }
let no_stats = create_stats ()

let build docs =
  let symbols = Symtab.create () in
  let lists : (Path.t, int list ref) Hashtbl.t = Hashtbl.create 1024 in
  Array.iteri
    (fun id doc ->
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun p ->
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.replace seen p ();
            match Hashtbl.find_opt lists p with
            | Some l -> l := id :: !l
            | None -> Hashtbl.replace lists p (ref [ id ])
          end)
        (Encoder.paths_of_tree symbols doc))
    docs;
  let postings = Hashtbl.create (Hashtbl.length lists) in
  Hashtbl.iter
    (fun p l -> Hashtbl.replace postings p (Array.of_list (List.rev !l)))
    lists;
  { symbols; postings; docs }

(* Root-to-leaf paths of a concrete pattern. *)
let rec leaves (c : Xquery.Instantiate.cnode) =
  match c.kids with [] -> [ c.path ] | kids -> List.concat_map leaves kids

let intersect stats a b =
  let la = Array.length a and lb = Array.length b in
  let out = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    stats.scanned <- stats.scanned + 1;
    if a.(!i) = b.(!j) then begin
      out := a.(!i) :: !out;
      incr i;
      incr j
    end
    else if a.(!i) < b.(!j) then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)

let query ?(stats = no_stats) t pattern =
  match Xquery.Instantiate.run ~value_mode:Encoder.Hashed t.symbols pattern with
  | exception Xquery.Instantiate.Too_many _ ->
    (* Wildcard blow-up: degrade to an exact scan. *)
    Xquery.Embedding.filter pattern t.docs
  | cnodes ->
    let candidates = Hashtbl.create 64 in
    List.iter
      (fun c ->
        let paths = List.sort_uniq Path.compare (leaves c) in
        let lists =
          List.map
            (fun p ->
              stats.lookups <- stats.lookups + 1;
              match Hashtbl.find_opt t.postings p with
              | Some l -> l
              | None -> [||])
            paths
        in
        match lists with
        | [] -> ()
        | first :: rest ->
          let inter = List.fold_left (intersect stats) first rest in
          Array.iter (fun d -> Hashtbl.replace candidates d ()) inter)
      cnodes;
    let result =
      Hashtbl.fold
        (fun d () acc ->
          stats.verified <- stats.verified + 1;
          if Xquery.Embedding.matches pattern t.docs.(d) then d :: acc else acc)
        candidates []
    in
    List.sort Stdlib.compare result

let distinct_paths t = Hashtbl.length t.postings

let entry_count t =
  Hashtbl.fold (fun _ l acc -> acc + Array.length l) t.postings 0
