module T = Xmlcore.Xml_tree
module Pattern = Xquery.Pattern

type opts = {
  size : int;
  star_prob : float;
  desc_prob : float;
  value_prob : float;
  wide : bool;
}

let default_opts =
  { size = 5; star_prob = 0.0; desc_prob = 0.0; value_prob = 0.3; wide = false }

(* Pick a random connected subtree of [size] nodes containing the root:
   grow a frontier from the root, picking uniformly ([wide = false]) or
   first-in-first-out for bushy patterns ([wide = true]). *)
let connected_subset rng ?(wide = false) ~size doc =
  (* Flatten with parents. *)
  let nodes = ref [] in
  let counter = ref 0 in
  let rec walk parent t =
    let me = !counter in
    incr counter;
    nodes := (me, parent, t) :: !nodes;
    List.iter (walk me) (T.children t)
  in
  walk (-1) doc;
  let arr =
    let a = Array.make !counter (-1, T.text "") in
    List.iter (fun (i, p, t) -> a.(i) <- (p, t)) !nodes;
    a
  in
  let children = Array.make !counter [] in
  Array.iteri (fun i (p, _) -> if p >= 0 then children.(p) <- i :: children.(p)) arr;
  let chosen = Hashtbl.create 16 in
  Hashtbl.replace chosen 0 ();
  let frontier = ref children.(0) in
  let steps = ref (size - 1) in
  while !steps > 0 && !frontier <> [] do
    let k =
      if wide then 0 else Random.State.int rng (List.length !frontier)
    in
    let pick = List.nth !frontier k in
    frontier := List.filteri (fun i _ -> i <> k) !frontier;
    Hashtbl.replace chosen pick ();
    (* wide: append children (FIFO = breadth-first); narrow: prepend *)
    if wide then frontier := !frontier @ children.(pick)
    else frontier := children.(pick) @ !frontier;
    decr steps
  done;
  (arr, children, chosen)

let exact_of_doc ?wide ~rng ~size doc =
  let arr, children, chosen = connected_subset rng ?wide ~size doc in
  let rec build i : Pattern.t =
    let _, t = arr.(i) in
    match t with
    | T.Value s -> Pattern.text s
    | T.Element (d, _) ->
      let kids =
        List.filter_map
          (fun c -> if Hashtbl.mem chosen c then Some (build c) else None)
          (List.rev children.(i))
      in
      Pattern.elt d kids
  in
  build 0

(* Generalise: values dropped with probability (1 - value_prob); element
   tags starred with star_prob; a non-root element contracted into its
   parent edge with desc_prob (its children move up under a Descendant
   axis). *)
let rec generalize rng opts (p : Pattern.t) : Pattern.t option =
  match p.test with
  | Pattern.Text _ | Pattern.Text_prefix _ ->
    if Random.State.float rng 1.0 < opts.value_prob then Some p else None
  | Pattern.Tag _ | Pattern.Star ->
    let kids = List.filter_map (generalize rng opts) p.children in
    let test =
      match p.test with
      | Pattern.Tag _ when Random.State.float rng 1.0 < opts.star_prob -> Pattern.Star
      | t -> t
    in
    Some { p with test; children = kids }

let rec contract rng opts (p : Pattern.t) : Pattern.t =
  let children = List.map (contract rng opts) p.children in
  let children =
    List.concat_map
      (fun (c : Pattern.t) ->
        match c.test with
        | Pattern.Tag _
          when c.children <> [] && Random.State.float rng 1.0 < opts.desc_prob ->
          (* Drop [c]; its children hang below [p] via //. *)
          List.map
            (fun (g : Pattern.t) -> { g with axis = Pattern.Descendant })
            c.children
        | _ -> [ c ])
      children
  in
  { p with children }

let generate ?(seed = 97) ~opts docs n =
  let rng = Random.State.make [| seed; opts.size; n |] in
  List.init n (fun _ ->
      let doc = docs.(Random.State.int rng (Array.length docs)) in
      let exact = exact_of_doc ~wide:opts.wide ~rng ~size:opts.size doc in
      let g =
        match generalize rng opts exact with
        | Some g -> g
        | None -> exact
      in
      contract rng opts g)
