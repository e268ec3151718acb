module D = Symtab.Designator
module Path = Symtab.Path
module T = Xmlcore.Xml_tree

exception Invalid_sequence of string

let invalid msg = raise (Invalid_sequence msg)

(* A decoder keeps two columns indexed by path id, sized to its table:
   the position of each path's latest node in the sequence being decoded
   (-1 between sequences), and each path's name once read, shared by
   every tree it decodes. *)
type columns = {
  mutable last : int array;
  mutable names : string option array;
}

let fit c symbols =
  let width = Symtab.path_count symbols and have = Array.length c.last in
  if width > have then begin
    c.last <- Array.append c.last (Array.make (width - have) (-1));
    c.names <- Array.append c.names (Array.make (width - have) None)
  end

let name c symbols p d =
  let i = Path.to_int p in
  match c.names.(i) with
  | Some name -> name
  | None ->
    let name = D.name symbols d in
    c.names.(i) <- Some name;
    name

(* [children] (in sequence order) with each moved to its rank where
   [moves] gives one as (index in sequence order, rank); every other
   child keeps its index. *)
let place children moves =
  let slots = Array.of_list children in
  let k = Array.length slots in
  let dest = Array.init k Fun.id in
  List.iter (fun (i, rank) -> dest.(i) <- rank) moves;
  let placed = Array.make k None in
  Array.iteri
    (fun i child ->
      let r = dest.(i) in
      if r >= k || Option.is_some placed.(r) then
        invalid "sibling order is not a permutation";
      placed.(r) <- Some child)
    slots;
  Array.to_list (Array.map Option.get placed)

(* The position of each node's parent: the latest preceding node on its
   parent path, exactly the forward-prefix rule of Definition 2 for
   ancestor-first sequences. *)
let parents c symbols seq =
  let len = Array.length seq in
  let parent = Array.make len (-1) and last = c.last in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun p -> last.(Path.to_int p) <- -1) seq)
    (fun () ->
      last.(Path.to_int seq.(0)) <- 0;
      for i = 1 to len - 1 do
        let p = seq.(i) in
        let q = if p = Path.epsilon then p else Path.parent symbols p in
        if q = Path.epsilon then invalid "second root element in sequence";
        match last.(Path.to_int q) with
        | -1 ->
          invalid
            (Printf.sprintf "element %d (%s) has no preceding parent" i
               (Path.to_string symbols p))
        | j ->
          parent.(i) <- j;
          last.(Path.to_int p) <- i
      done);
  parent

(* Per node, the (index among its siblings in sequence order, rank)
   pairs of its children that [order] moves. *)
let sibling_moves order parent =
  let len = Array.length parent in
  if Array.length order land 1 <> 0 then invalid "odd sibling order";
  let rank = Array.make len (-1) in
  for k = 0 to (Array.length order / 2) - 1 do
    let at = order.(2 * k) and r = order.((2 * k) + 1) in
    if at < 1 || at >= len || r < 0 then invalid "sibling order out of range";
    rank.(at) <- r
  done;
  let seen = Array.make len 0 and moves = Array.make len [] in
  for i = 1 to len - 1 do
    let j = parent.(i) in
    if rank.(i) >= 0 then moves.(j) <- (seen.(j), rank.(i)) :: moves.(j);
    seen.(j) <- seen.(j) + 1
  done;
  moves

let decoder ?(value_mode = Encoder.Hashed) symbols =
  let c = { last = [||]; names = [||] } in
  fun ?(order = [||]) seq ->
    let len = Array.length seq in
    if len = 0 then invalid "empty sequence";
    if seq.(0) = Path.epsilon || Path.parent symbols seq.(0) <> Path.epsilon
    then invalid "first element is not a root path";
    fit c symbols;
    let parent = parents c symbols seq in
    let moves = if order = [||] then [||] else sibling_moves order parent in
    let tag i = Path.tag symbols seq.(i) in
    (* A text-mode value is a chain of one-character value designators
       closed by the [value_end] designator: one [Value], read from the
       chain's head through each node's only child. *)
    let text = value_mode = Encoder.Text in
    let only = Array.make (if text then len else 0) (-1) in
    if text then
      for i = 1 to len - 1 do
        let j = parent.(i) in
        only.(j) <- (if only.(j) = -1 then i else -2)
      done;
    let chain i =
      let buf = Buffer.create 16 in
      let rec go i =
        let d = tag i in
        if not (D.is_value symbols d) then invalid "element inside a text value"
        else if D.name_equal symbols d Encoder.value_end then begin
          if only.(i) <> -1 then invalid "text continues past its end"
        end
        else if only.(i) < 0 then invalid "broken text chain"
        else begin
          Buffer.add_string buf (name c symbols seq.(i) d);
          go only.(i)
        end
      in
      go i;
      Buffer.contents buf
    in
    (* Every node's children come after it, so one backward pass builds
       each subtree before its parent, consing children into sequence
       order. *)
    let kids = Array.make len [] and root = ref (T.Value "") in
    let emit i node =
      if i = 0 then root := node
      else kids.(parent.(i)) <- node :: kids.(parent.(i))
    in
    for i = len - 1 downto 0 do
      let d = tag i in
      if text && D.is_value symbols d then begin
        if i = 0 || not (D.is_value symbols (tag parent.(i))) then
          emit i (T.Value (chain i))
      end
      else
        match kids.(i) with
        | [] when D.is_value symbols d ->
          emit i (T.Value (name c symbols seq.(i) d))
        | children ->
          let children =
            if Array.length moves = 0 || moves.(i) = [] then children
            else place children moves.(i)
          in
          emit i (T.Element (name c symbols seq.(i) d, children))
    done;
    !root

let decode ?value_mode ?order symbols seq =
  decoder ?value_mode symbols ?order seq
