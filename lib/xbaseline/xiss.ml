module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module T = Xmlcore.Xml_tree

type entry = { doc : int; pre : int; post : int; depth : int }

type t = {
  symbols : Symtab.t; (* the designators the nodes are posted under *)
  postings : (D.t, entry array) Hashtbl.t;
  element_designators : D.t list; (* tags only, for Star *)
  docs : T.t array;
}

type query_stats = {
  mutable scanned : int;
  mutable joined : int;
  mutable verified : int;
}

let create_stats () = { scanned = 0; joined = 0; verified = 0 }
let no_stats = create_stats ()

let build docs =
  let symbols = Symtab.create () in
  let lists : (D.t, entry list ref) Hashtbl.t = Hashtbl.create 256 in
  let post d e =
    match Hashtbl.find_opt lists d with
    | Some l -> l := e :: !l
    | None -> Hashtbl.replace lists d (ref [ e ])
  in
  Array.iteri
    (fun doc tree ->
      let counter = ref 0 in
      let rec walk depth t =
        let pre = !counter in
        incr counter;
        (match t with
         | T.Element (_, cs) -> List.iter (walk (depth + 1)) cs
         | T.Value _ -> ());
        let post_serial = !counter - 1 in
        let d =
          match t with
          | T.Element (name, _) -> D.tag symbols name
          | T.Value s -> D.value symbols s
        in
        post d { doc; pre; post = post_serial; depth }
      in
      walk 0 tree)
    docs;
  let postings = Hashtbl.create (Hashtbl.length lists) in
  let elements = ref [] in
  Hashtbl.iter
    (fun d l ->
      let arr = Array.of_list !l in
      Array.sort (fun a b -> Stdlib.compare (a.doc, a.pre) (b.doc, b.pre)) arr;
      Hashtbl.replace postings d arr;
      if not (D.is_value symbols d) then elements := d :: !elements)
    lists;
  { symbols; postings; element_designators = !elements; docs }

let lookup t d = Option.value ~default:[||] (Hashtbl.find_opt t.postings d)

let lookup_name t find name =
  match find t.symbols name with Some d -> lookup t d | None -> [||]

let star_list t =
  let all = List.concat_map (fun d -> Array.to_list (lookup t d)) t.element_designators in
  let arr = Array.of_list all in
  Array.sort (fun a b -> Stdlib.compare (a.doc, a.pre) (b.doc, b.pre)) arr;
  arr

let base_list t stats (test : Xquery.Pattern.test) =
  match test with
  | Xquery.Pattern.Tag s ->
    let l = lookup_name t D.find_tag s in
    stats.scanned <- stats.scanned + Array.length l;
    l
  | Xquery.Pattern.Star ->
    let l = star_list t in
    stats.scanned <- stats.scanned + Array.length l;
    l
  | Xquery.Pattern.Text s ->
    let l = lookup_name t D.find_value s in
    stats.scanned <- stats.scanned + Array.length l;
    l
  | Xquery.Pattern.Text_prefix s ->
    (* A node index has no value-prefix organisation: scan all value
       designators. *)
    let acc = ref [] in
    Hashtbl.iter
      (fun d l ->
        if D.is_value t.symbols d && D.name_has_prefix t.symbols d s then
          acc := Array.to_list l :: !acc)
      t.postings;
    let arr = Array.of_list (List.concat !acc) in
    Array.sort (fun a b -> Stdlib.compare (a.doc, a.pre) (b.doc, b.pre)) arr;
    stats.scanned <- stats.scanned + Array.length arr;
    arr

(* Keep the ancestors [xs] that have a matching element in [ys] below
   them (ancestor–descendant or parent–child semijoin, merge-style). *)
let semijoin stats ~axis xs ys =
  let ly = Array.length ys in
  let first_after doc pre =
    (* smallest j with (ys.(j).doc, ys.(j).pre) > (doc, pre) *)
    let lo = ref 0 and hi = ref ly in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let y = ys.(mid) in
      if (y.doc, y.pre) <= (doc, pre) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let keep x =
    let j = ref (first_after x.doc x.pre) in
    let found = ref false in
    let continue = ref true in
    while !continue && !j < ly do
      let y = ys.(!j) in
      stats.scanned <- stats.scanned + 1;
      if y.doc <> x.doc || y.pre > x.post then continue := false
      else begin
        (match axis with
         | Xquery.Pattern.Descendant -> found := true
         | Xquery.Pattern.Child -> if y.depth = x.depth + 1 then found := true);
        if !found then continue := false else incr j
      end
    done;
    !found
  in
  let out = Array.of_list (List.filter keep (Array.to_list xs)) in
  stats.joined <- stats.joined + Array.length out;
  out

let query ?(stats = no_stats) t pattern =
  let rec eval (p : Xquery.Pattern.t) =
    let base = base_list t stats p.test in
    List.fold_left
      (fun acc (c : Xquery.Pattern.t) ->
        let cl = eval c in
        semijoin stats ~axis:c.axis acc cl)
      base p.children
  in
  let roots = eval pattern in
  let roots =
    match pattern.axis with
    | Xquery.Pattern.Child -> Array.of_list (List.filter (fun e -> e.pre = 0) (Array.to_list roots))
    | Xquery.Pattern.Descendant -> roots
  in
  let candidates = Hashtbl.create 64 in
  Array.iter (fun e -> Hashtbl.replace candidates e.doc ()) roots;
  let result =
    Hashtbl.fold
      (fun d () acc ->
        stats.verified <- stats.verified + 1;
        if Xquery.Embedding.matches pattern t.docs.(d) then d :: acc else acc)
      candidates []
  in
  List.sort Stdlib.compare result

let element_count t =
  Hashtbl.fold (fun _ l acc -> acc + Array.length l) t.postings 0

let distinct_designators t = Hashtbl.length t.postings
