module D = Symtab.Designator
module Path = Symtab.Path
module T = Xmlcore.Xml_tree

exception Invalid_sequence of string

type builder = { path : Path.t; mutable rev_children : builder list }

let decode symbols seq =
  if Array.length seq = 0 then raise (Invalid_sequence "empty sequence");
  if Path.depth symbols seq.(0) <> 1 then
    raise (Invalid_sequence "first element is not a root path");
  let root = { path = seq.(0); rev_children = [] } in
  (* [last] maps a path to its most recent builder node: exactly the
     forward-prefix rule of Definition 2 for ancestor-first sequences. *)
  let last : (Path.t, builder) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace last seq.(0) root;
  for i = 1 to Array.length seq - 1 do
    let p = seq.(i) in
    if Path.depth symbols p < 2 then
      raise (Invalid_sequence "second root element in sequence");
    let parent =
      match Hashtbl.find_opt last (Path.parent symbols p) with
      | Some b -> b
      | None ->
        raise
          (Invalid_sequence
             (Printf.sprintf "element %d (%s) has no preceding parent" i
                (Path.to_string symbols p)))
    in
    let b = { path = p; rev_children = [] } in
    parent.rev_children <- b :: parent.rev_children;
    Hashtbl.replace last p b
  done;
  let rec freeze b =
    let d = Path.tag symbols b.path in
    match b.rev_children with
    | [] when D.is_value symbols d -> T.Value (D.name symbols d)
    | rev -> T.Element (D.name symbols d, List.rev_map freeze rev)
  in
  freeze root
