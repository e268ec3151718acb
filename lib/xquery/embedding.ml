module T = Xmlcore.Xml_tree

(* Flattened document: pre-order arrays with (pre, post) for O(1)
   descendant tests. *)
type doc = {
  tags : string option array; (* None for value leaves *)
  values : string option array;
  parent : int array;
  post : int array;
  size : int;
}

let flatten_doc tree =
  let n = T.node_count tree in
  let tags = Array.make n None in
  let values = Array.make n None in
  let parent = Array.make n (-1) in
  let post = Array.make n 0 in
  let counter = ref 0 in
  let rec walk par t =
    let me = !counter in
    incr counter;
    parent.(me) <- par;
    (match t with
     | T.Element (d, cs) ->
       tags.(me) <- Some d;
       List.iter (walk me) cs
     | T.Value s -> values.(me) <- Some s);
    post.(me) <- !counter - 1
  in
  walk (-1) tree;
  { tags; values; parent; post; size = n }

let is_descendant doc ~anc ~desc = desc > anc && desc <= doc.post.(anc)
let is_child doc ~anc ~desc = doc.parent.(desc) = anc

(* Pattern flattened in pre-order with parent links. *)
type pnode = { test : Pattern.test; axis : Pattern.axis; pparent : int }

let flatten_pattern p =
  let acc = ref [] in
  let count = ref 0 in
  let rec walk pparent (node : Pattern.t) =
    let me = !count in
    incr count;
    acc := { test = node.test; axis = node.axis; pparent } :: !acc;
    List.iter (walk me) node.children
  in
  walk (-1) p;
  Array.of_list (List.rev !acc)

let test_ok doc test node =
  match test with
  | Pattern.Star -> doc.tags.(node) <> None
  | Pattern.Tag s ->
    (match doc.tags.(node) with
     | Some d -> String.equal d s
     | None -> false)
  | Pattern.Text s ->
    (match doc.values.(node) with Some v -> String.equal v s | None -> false)
  | Pattern.Text_prefix s ->
    (match doc.values.(node) with
     | Some v -> String.length v >= String.length s && String.sub v 0 (String.length s) = s
     | None -> false)

let matches pattern tree =
  let doc = flatten_doc tree in
  let pat = flatten_pattern pattern in
  let np = Array.length pat in
  let assign = Array.make np (-1) in
  let used = Array.make doc.size false in
  let axis_ok i node =
    let p = pat.(i) in
    if p.pparent < 0 then
      match p.axis with Pattern.Child -> node = 0 | Pattern.Descendant -> true
    else begin
      let pn = assign.(p.pparent) in
      match p.axis with
      | Pattern.Child -> is_child doc ~anc:pn ~desc:node
      | Pattern.Descendant -> is_descendant doc ~anc:pn ~desc:node
    end
  in
  let rec solve i =
    if i >= np then true
    else begin
      let found = ref false in
      let node = ref 0 in
      while (not !found) && !node < doc.size do
        let n = !node in
        if (not used.(n)) && test_ok doc pat.(i).test n && axis_ok i n then begin
          assign.(i) <- n;
          used.(n) <- true;
          if solve (i + 1) then found := true
          else begin
            used.(n) <- false;
            assign.(i) <- -1
          end
        end;
        incr node
      done;
      !found
    end
  in
  solve 0

let filter pattern docs =
  let acc = ref [] in
  Array.iteri (fun i d -> if matches pattern d then acc := i :: !acc) docs;
  List.rev !acc
