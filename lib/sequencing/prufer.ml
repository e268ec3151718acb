module T = Xmlcore.Xml_tree

type label = Tag of string | Text of string
type t = { parents : int array; tags : label array }

let encode tree =
  let n = T.node_count tree in
  let tags = Array.make n (Tag "") in
  let parent = Array.make (n + 1) 0 in
  let degree = Array.make (n + 1) 0 in
  (* Post-order numbering. *)
  let counter = ref 0 in
  let rec number t =
    let kid_numbers = List.map number (T.children t) in
    incr counter;
    let me = !counter in
    tags.(me - 1) <-
      (match t with T.Element (name, _) -> Tag name | T.Value s -> Text s);
    List.iter
      (fun k ->
        parent.(k) <- me;
        degree.(me) <- degree.(me) + 1)
      kid_numbers;
    me
  in
  let root = number tree in
  assert (root = n);
  if n = 1 then { parents = [||]; tags }
  else begin
    (* Delete the smallest-numbered leaf n-1 times.  A node becomes a
       leaf when all its children are deleted; deletions only ever make
       numbers larger than the current one into leaves, except that the
       parent of the deleted leaf may become a leaf with a smaller
       number... post-order guarantees parents have larger numbers, so a
       linear sweep with a single backtrack pointer suffices. *)
    let out = Array.make (n - 1) 0 in
    let removed = Array.make (n + 1) false in
    let is_leaf k = degree.(k) = 0 in
    let ptr = ref 1 in
    for i = 0 to n - 2 do
      while !ptr <= n && (removed.(!ptr) || not (is_leaf !ptr)) do
        incr ptr
      done;
      let leaf = !ptr in
      removed.(leaf) <- true;
      let p = parent.(leaf) in
      out.(i) <- p;
      degree.(p) <- degree.(p) - 1
      (* With post-order numbering parent.(leaf) > leaf, so when [p]
         becomes a leaf it still lies ahead of [ptr]; no backtracking is
         needed. *)
    done;
    { parents = out; tags }
  end

let decode { parents; tags } =
  let n = Array.length tags in
  if n = 0 then invalid_arg "Prufer.decode: empty tag array";
  if Array.length parents <> n - 1 then
    invalid_arg "Prufer.decode: length mismatch";
  (* Replay the deletions: the i-th deleted leaf is the smallest number
     that is not yet deleted and no longer appears in the remaining code. *)
  let remaining = Array.make (n + 1) 0 in
  Array.iter
    (fun p ->
      if p < 1 || p > n then invalid_arg "Prufer.decode: parent out of range";
      remaining.(p) <- remaining.(p) + 1)
    parents;
  let removed = Array.make (n + 1) false in
  let children = Array.make (n + 1) [] in
  let ptr = ref 1 in
  Array.iter
    (fun p ->
      while !ptr <= n && (removed.(!ptr) || remaining.(!ptr) > 0) do
        incr ptr
      done;
      if !ptr > n then invalid_arg "Prufer.decode: malformed code";
      let leaf = !ptr in
      removed.(leaf) <- true;
      children.(p) <- leaf :: children.(p);
      remaining.(p) <- remaining.(p) - 1;
      if remaining.(p) = 0 && p < !ptr then ptr := p)
    parents;
  (* Post-order sibling numbers increase left to right, so sort. *)
  let rec build k =
    let kids = List.sort Stdlib.compare children.(k) in
    match tags.(k - 1), kids with
    | Text s, [] -> T.Value s
    | Text _, _ :: _ -> invalid_arg "Prufer.decode: value with children"
    | Tag name, kids -> T.Element (name, List.map build kids)
  in
  build n

let to_string { parents; _ } =
  "<"
  ^ String.concat "," (Array.to_list (Array.map string_of_int parents))
  ^ ">"
