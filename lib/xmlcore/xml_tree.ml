type t =
  | Element of string * t list
  | Value of string

let elt name children = Element (name, children)
let attr name v = Element ("@" ^ name, [ Value v ])
let text v = Value v

let tag = function
  | Element (d, _) -> d
  | Value _ -> invalid_arg "Xml_tree.tag: value leaf"

let children = function
  | Element (_, cs) -> cs
  | Value _ -> []

let rec node_count = function
  | Value _ -> 1
  | Element (_, cs) -> List.fold_left (fun n c -> n + node_count c) 1 cs

let rec depth = function
  | Value _ -> 1
  | Element (_, cs) -> 1 + List.fold_left (fun d c -> max d (depth c)) 0 cs

let rec max_fanout = function
  | Value _ -> 0
  | Element (_, cs) ->
    List.fold_left (fun m c -> max m (max_fanout c)) (List.length cs) cs

let rec equal a b =
  match a, b with
  | Value x, Value y -> String.equal x y
  | Element (da, ca), Element (db, cb) ->
    String.equal da db && List.equal equal ca cb
  | Value _, Element _ | Element _, Value _ -> false

let rec compare a b =
  match a, b with
  | Value x, Value y -> String.compare x y
  | Value _, Element _ -> -1
  | Element _, Value _ -> 1
  | Element (da, ca), Element (db, cb) ->
    let c = String.compare da db in
    if c <> 0 then c else List.compare compare ca cb

let rec canonical_sort t =
  match t with
  | Value _ -> t
  | Element (d, cs) ->
    Element (d, List.sort compare (List.map canonical_sort cs))

let isomorphic a b = equal (canonical_sort a) (canonical_sort b)

let rec sort_by_tag t =
  match t with
  | Value _ -> t
  | Element (d, cs) ->
    (* Values before elements, each by name: the order in which
       [Sequencing.Symtab.Path.lex_compare] ranks designators, so document
       order agrees with the depth-first query pipeline in every index. *)
    let order a b =
      match a, b with
      | Value x, Value y | Element (x, _), Element (y, _) -> String.compare x y
      | Value _, Element _ -> -1
      | Element _, Value _ -> 1
    in
    let cs = List.stable_sort order (List.map sort_by_tag cs) in
    Element (d, cs)

let rec has_identical_siblings = function
  | Value _ -> false
  | Element (_, cs) ->
    let tags =
      List.filter_map (function Element (d, _) -> Some d | Value _ -> None) cs
    in
    let sorted = List.sort String.compare tags in
    let rec dup = function
      | a :: (b :: _ as rest) -> String.equal a b || dup rest
      | [ _ ] | [] -> false
    in
    dup sorted || List.exists has_identical_siblings cs

let rec fold f acc t =
  let acc = f acc t in
  match t with
  | Value _ -> acc
  | Element (_, cs) -> List.fold_left (fold f) acc cs

let rec pp ppf = function
  | Value v -> Format.fprintf ppf "%S" v
  | Element (d, []) -> Format.pp_print_string ppf d
  | Element (d, cs) ->
    Format.fprintf ppf "%s(%a)" d
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") pp)
      cs
