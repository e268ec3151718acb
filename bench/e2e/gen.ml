(* Seeded benchmark inputs.  The server only ever sees what this module
   produces: record-per-line XML files and XPath strings.  Every query set
   is rendered to XPath text and kept only if the text parses back to the
   same tree pattern, so the wire run and the in-process oracle answer
   exactly the same question. *)

module P = Xquery.Pattern
module Qgen = Xdatagen.Query_gen

type corpus = {
  xmls : string array;  (** one serialised record per element *)
  docs : Xmlcore.Xml_tree.t array;  (** the records parsed back from [xmls] *)
}

(* Parse the rendered text rather than keep the generator's trees, so the
   oracle indexes byte-for-byte what the server reads from the file. *)
let corpus_of_docs generated =
  let xmls = Array.map (fun d -> Xmlcore.Xml_printer.to_string d) generated in
  { xmls; docs = Array.map (fun s -> Xmlcore.Xml_parser.parse_string s) xmls }

let dblp ~seed n = corpus_of_docs (Xdatagen.Dblp_gen.generate ~seed n)

let xmark ~seed n =
  corpus_of_docs (Xdatagen.Xmark_gen.generate ~seed ~identical_siblings:true n)

let sub c lo len = { xmls = Array.sub c.xmls lo len; docs = Array.sub c.docs lo len }

(* Bytes of the records as written to a file: one record per line. *)
let xml_bytes xmls = Array.fold_left (fun acc s -> acc + String.length s + 1) 0 xmls

let write_records path xmls =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iter
        (fun s ->
          output_string oc s;
          output_char oc '\n')
        xmls)

(* --- XPath rendering ------------------------------------------------------ *)

exception Unrenderable

let literal v =
  if not (String.contains v '\'') then "'" ^ v ^ "'"
  else if not (String.contains v '"') then "\"" ^ v ^ "\""
  else raise Unrenderable

let rec is_chain (p : P.t) =
  match p.children with [] -> true | [ c ] -> is_chain c | _ -> false

let axis_text = function P.Child -> "/" | P.Descendant -> "//"

let name_test (p : P.t) =
  match p.test with P.Tag t -> t | P.Star -> "*" | _ -> raise Unrenderable

(* The parser's fragment: a main path whose steps carry predicates, each
   predicate a single chain.  A pattern node with two branching children
   has no rendering. *)
let xpath_of_pattern (p : P.t) =
  let rec chain (p : P.t) =
    match (p.test, p.children) with
    | P.Text v, [] -> "text=" ^ literal v
    | (P.Text _ | P.Text_prefix _), _ -> raise Unrenderable
    | _, [] -> name_test p
    | _, [ { P.test = P.Text v; axis = P.Child; children = [] } ] ->
      name_test p ^ "=" ^ literal v
    | _, [ c ] -> name_test p ^ axis_text c.axis ^ chain c
    | _ -> raise Unrenderable
  in
  let predicate (c : P.t) =
    "[" ^ (match c.axis with P.Child -> "" | P.Descendant -> "//") ^ chain c ^ "]"
  in
  let rec steps (p : P.t) =
    let main, preds =
      match List.partition (fun c -> not (is_chain c)) p.children with
      | [], preds -> (None, preds)
      | [ m ], preds -> (Some m, preds)
      | _ -> raise Unrenderable
    in
    name_test p
    ^ String.concat "" (List.map predicate preds)
    ^ match main with None -> "" | Some m -> axis_text m.axis ^ steps m
  in
  match axis_text p.axis ^ steps p with
  | s -> Some s
  | exception Unrenderable -> None

let rec canonical (p : P.t) =
  { p with children = List.sort compare (List.map canonical p.children) }

(* Some XPath text that parses back to [p] (children are unordered). *)
let round_trip p =
  match xpath_of_pattern p with
  | None -> None
  | Some x -> (
    match Xquery.Xpath_parser.parse x with
    | q when canonical q = canonical p -> Some x
    | _ -> None
    | exception Xquery.Xpath_parser.Syntax_error _ -> None)

(* Largest sibling group that instantiation could make identical: same-tag
   siblings plus every [*] sibling.  Query compilation enumerates every
   permutation of such a group before it checks its budget, so groups
   beyond 3 (3! = 6 arrangements) are kept out of the query sets. *)
let rec max_identical_group (p : P.t) =
  let stars = List.length (List.filter (fun (c : P.t) -> c.test = P.Star) p.children) in
  let here =
    List.fold_left
      (fun acc (c : P.t) ->
        match c.test with
        | P.Tag t ->
          max acc
            (stars
            + List.length (List.filter (fun (d : P.t) -> d.test = P.Tag t) p.children))
        | _ -> acc)
      stars p.children
  in
  List.fold_left (fun acc c -> max acc (max_identical_group c)) here p.children

let rec has_value (p : P.t) =
  match p.test with
  | P.Text _ | P.Text_prefix _ -> true
  | _ -> List.exists has_value p.children

(* --- query sets ------------------------------------------------------------ *)

(* [lookup]: exact size-3 patterns keeping every value leaf, selective
   (at most [max_answers] matching records).  Batches of candidates are
   drawn until [count] distinct queries are found. *)
let lookup_queries ~seed ~count ~max_answers index docs =
  let opts =
    { Qgen.size = 3; star_prob = 0.; desc_prob = 0.; value_prob = 1.0; wide = false }
  in
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] and found = ref 0 in
  let batch = 50_000 in
  let round = ref 0 in
  while !found < count && !round < 16 do
    let patterns = Qgen.generate ~seed:((seed * 1_000) + !round) ~opts docs batch in
    List.iter
      (fun p ->
        if !found < count && has_value p then
          match round_trip p with
          | Some x when not (Hashtbl.mem seen x) ->
            Hashtbl.replace seen x ();
            let ids = Xseq.query index p in
            if List.length ids <= max_answers then begin
              out := (x, ids) :: !out;
              incr found
            end
          | _ -> ())
      patterns;
    incr round
  done;
  Array.of_list (List.rev !out)

(* Bushy twigs (wildcards and descendant edges, no values), sizes 4 to 8
   in rotation: the first [count] distinct ones that round-trip and whose
   compilation stays under the instantiation budget.  A twig over the
   budget ([Too_many]) has no answer from a snapshot served without its
   records, so the server could not serve it. *)
let twig_queries ~seed ~count index docs =
  let sizes = [ 4; 5; 6; 7; 8 ] in
  let seen = Hashtbl.create 256 in
  let out = ref [] and found = ref 0 and round = ref 0 in
  let consider p =
    if !found < count && max_identical_group p <= 3 then
      match round_trip p with
      | Some x when not (Hashtbl.mem seen x) -> (
        Hashtbl.replace seen x ();
        match Xseq.prepare index p with
        | plan ->
          out := (x, Xseq.run_prepared index plan) :: !out;
          incr found
        | exception Xquery.Instantiate.Too_many _ -> ())
      | _ -> ()
  in
  while !found < count && !round < 16 do
    let batches =
      List.map
        (fun size ->
          let opts =
            { Qgen.size; star_prob = 0.3; desc_prob = 0.3; value_prob = 0.; wide = true }
          in
          Array.of_list (Qgen.generate ~seed:((seed * 1_000) + (!round * 10) + size) ~opts docs count))
        sizes
    in
    for j = 0 to count - 1 do
      List.iter (fun batch -> consider batch.(j)) batches
    done;
    incr round
  done;
  Array.of_list (List.rev !out)
