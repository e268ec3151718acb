(* XML data model and parser/printer tests. *)

module T = Xmlcore.Xml_tree
module P = Xmlcore.Xml_parser
module Pr = Xmlcore.Xml_printer
module Gen = QCheck.Gen

let e = T.elt
let v = T.text

(* --- tree operations ----------------------------------------------------- *)

let sample = e "P" [ v "xml"; e "R" [ e "L" [ v "boston" ] ]; e "D" [] ]

let test_tree_measures () =
  Alcotest.(check int) "node count" 6 (T.node_count sample);
  Alcotest.(check int) "depth" 4 (T.depth sample);
  Alcotest.(check bool) "no identical sibs" false (T.has_identical_siblings sample);
  let dup = e "P" [ e "D" []; e "D" [] ] in
  Alcotest.(check bool) "identical sibs" true (T.has_identical_siblings dup)

let test_isomorphism () =
  let a = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let b = e "P" [ e "L" [ e "B" [] ]; e "L" [ e "S" [] ] ] in
  Alcotest.(check bool) "isomorphic" true (T.isomorphic a b);
  Alcotest.(check bool) "not equal" false (T.equal a b);
  let c = e "P" [ e "L" [ e "S" []; e "B" [] ] ] in
  Alcotest.(check bool) "different shape" false (T.isomorphic a c)

let test_sort_by_tag_stable () =
  (* Equal tags keep document order; subtree contents must not matter. *)
  let t = e "P" [ e "L" [ e "Z" [] ]; e "L" [ e "A" [] ] ] in
  match T.sort_by_tag t with
  | T.Element
      (_, [ T.Element (_, [ T.Element (z, _) ]); T.Element (_, [ T.Element (a, _) ]) ])
    ->
    Alcotest.(check string) "first kept" "Z" z;
    Alcotest.(check string) "second kept" "A" a
  | _ -> Alcotest.fail "unexpected shape"

(* Siblings sort by name — values first — whatever order the names were
   first seen in, so every index sorts a record the same way. *)
let test_sort_by_tag_names () =
  ignore (P.parse_string "<x><zeta/><alpha/></x>");
  let t = e "r" [ e "zeta" [ v "1" ]; v "b"; e "alpha" [ v "2" ]; v "a" ] in
  Alcotest.(check bool) "values, then tags, each by name" true
    (T.equal (T.sort_by_tag t)
       (e "r" [ v "a"; v "b"; e "alpha" [ v "2" ]; e "zeta" [ v "1" ] ]))

(* --- parser -------------------------------------------------------------- *)

let test_parse_basic () =
  let t = P.parse_string "<P><R><L>boston</L></R><D/></P>" in
  Alcotest.(check bool) "structure" true
    (T.equal t (e "P" [ e "R" [ e "L" [ v "boston" ] ]; e "D" [] ]))

let test_parse_attributes () =
  let t = P.parse_string {|<item id="42" loc="US"><name>lamp</name></item>|} in
  Alcotest.(check bool) "attrs become @-children" true
    (T.equal t
       (e "item" [ T.attr "id" "42"; T.attr "loc" "US"; e "name" [ v "lamp" ] ]))

let test_parse_entities () =
  let t = P.parse_string "<a>x &lt;&amp;&gt; &quot;y&quot; &#65;&#x42;</a>" in
  match t with
  | T.Element (_, [ T.Value s ]) ->
    Alcotest.(check string) "decoded" "x <&> \"y\" AB" s
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_cdata_comment_pi () =
  let t =
    P.parse_string
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a><!-- hi \
       --><![CDATA[1 < 2 & 3]]><?target data?></a>"
  in
  match t with
  | T.Element (_, [ T.Value s ]) -> Alcotest.(check string) "cdata" "1 < 2 & 3" s
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_whitespace () =
  let t = P.parse_string "<a>\n  <b/>\n  <c/>\n</a>" in
  Alcotest.(check int) "whitespace dropped" 3 (T.node_count t);
  let t2 = P.parse_string ~keep_whitespace:true "<a>\n  <b/>\n</a>" in
  Alcotest.(check bool) "whitespace kept" true (T.node_count t2 > 2)

let test_parse_errors () =
  let fails s =
    match P.parse_string s with
    | exception P.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %s" s
  in
  fails "";
  fails "<a>";
  fails "<a></b>";
  fails "<a><b></a></b>";
  fails "<a>&unknown;</a>";
  fails "<a attr=unquoted></a>";
  fails "<a/><b/>";
  fails "text only"

let test_parse_error_position () =
  match P.parse_string "<a>\n<b>\n</c>\n</a>" with
  | exception P.Parse_error { line; _ } -> Alcotest.(check int) "line" 3 line
  | _ -> Alcotest.fail "expected parse error"

(* Where each error is reported: (input, position, line, message). *)
let test_parse_error_positions () =
  let cases =
    [
      ("<a>abc", 6, 1, "unterminated element content");
      ("<a>\nab\nc", 8, 3, "unterminated element content");
      ("<a>x&amp;", 9, 1, "unterminated element content");
      ("<a>&lt;", 7, 1, "unterminated element content");
      ("<a>x&amp;&bogus;y</a>", 16, 1, "unknown entity &bogus;");
      ("<a>x&amp", 8, 1, "unterminated entity reference");
      ("<a>x&amp;</b>", 12, 1, "mismatched close tag </b> for <a>");
      ("<a b='x&amp;", 12, 1, "unterminated attribute value");
      ("<a b=\"&quot;&#x3C;\"", 19, 1, "unterminated start tag");
      ("<a><![CDATA[x]]", 15, 1, "unterminated CDATA section");
      ("<a><!-- x --", 12, 1, "unterminated comment");
      ("<a>x<", 5, 1, "expected a name");
      ("<a>\n</ab>", 8, 2, "mismatched close tag </ab> for <a>");
    ]
  in
  List.iter
    (fun (src, pos, line, msg) ->
      match P.parse_fragments src with
      | exception P.Parse_error e ->
        Alcotest.(check (triple int int string))
          (Printf.sprintf "%S" src) (pos, line, msg) (e.pos, e.line, e.msg)
      | _ -> Alcotest.failf "expected a parse error for %S" src)
    cases

let test_fragments () =
  let ts = P.parse_fragments "<a/><b>x</b> <c/>" in
  Alcotest.(check int) "three roots" 3 (List.length ts)

(* --- printer ------------------------------------------------------------- *)

let test_print_roundtrip () =
  let t =
    e "item"
      [ T.attr "id" "1&2"; e "name" [ v "a <lamp>" ]; e "empty" []; v "tail" ]
  in
  let s = Pr.to_string t in
  Alcotest.(check bool) "roundtrip" true (T.equal (P.parse_string s) t)

let test_escapes () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Pr.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "&quot;x&quot;" (Pr.escape_attr "\"x\"")

(* --- properties ---------------------------------------------------------- *)

let tag_gen = Gen.oneofa [| "a"; "b"; "cc"; "dd-e"; "f_g" |]
let text_gen = Gen.oneofa [| "x"; "a&b"; "1 < 2"; "\"quoted\""; "plain text" |]

let tree_gen : T.t Gen.t =
  let open Gen in
  let rec node depth st =
    let fanout = if depth >= 3 then 0 else int_bound (3 - depth) st in
    let kids =
      List.init fanout (fun _ ->
          if int_bound 3 st = 0 then T.Value (text_gen st) else node (depth + 1) st)
    in
    T.elt (tag_gen st) kids
  in
  node 0

let arb_tree = QCheck.make ~print:(Format.asprintf "%a" T.pp) tree_gen

(* Adjacent text nodes are indistinguishable after serialisation, so the
   round-trip is up to merging them. *)
let rec merge_adjacent_text t =
  match t with
  | T.Value _ -> t
  | T.Element (d, cs) ->
    let rec merge = function
      | T.Value a :: T.Value b :: rest -> merge (T.Value (a ^ b) :: rest)
      | c :: rest -> merge_adjacent_text c :: merge rest
      | [] -> []
    in
    T.Element (d, merge cs)

let prop_print_parse =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300 arb_tree (fun t ->
      let t = merge_adjacent_text t in
      T.equal (P.parse_string (Pr.to_string t)) t)

let prop_print_parse_indent =
  (* Indented output adds whitespace; with values stripped the structure
     must survive exactly. *)
  QCheck.Test.make ~name:"indented roundtrip (no values)" ~count:200 arb_tree
    (fun t ->
      let rec strip = function
        | T.Element (d, cs) ->
          T.Element
            ( d,
              List.filter_map
                (fun c -> match c with T.Value _ -> None | e -> Some (strip e))
                cs )
        | leaf -> leaf
      in
      let t = strip t in
      T.equal (P.parse_string ~keep_whitespace:false (Pr.to_string ~indent:true t)) t)

(* XML text written a piece at a time, with the tree it must parse to.
   Values are dense in the five escaped characters and each is written
   as escaped text (named or numeric references, chosen per character)
   or, when it holds no "]]>", as a CDATA section.  Comments sit between
   siblings at random, and always between two text runs, which would
   otherwise read as one value.  Attribute values use either quote. *)
let dense_char = Gen.oneofa [| '&'; '<'; '>'; '\''; '"'; 'a'; ';'; '#'; ']'; ' ' |]

let dense_value =
  Gen.(
    map
      (fun cs ->
        let s = String.of_seq (List.to_seq cs) in
        (* Blank text is dropped, so keep one character that is not. *)
        if String.trim s = "" then s ^ "q" else s)
      (list_size (int_range 1 12) dense_char))

let escape_char st c =
  match c, Gen.int_bound 2 st with
  | '&', 0 -> "&amp;"
  | '<', 0 -> "&lt;"
  | '>', 0 -> "&gt;"
  | '\'', 0 -> "&apos;"
  | '"', 0 -> "&quot;"
  | ('&' | '<' | '>' | '\'' | '"'), 1 -> Printf.sprintf "&#%d;" (Char.code c)
  | ('&' | '<' | '>' | '\'' | '"'), _ -> Printf.sprintf "&#x%X;" (Char.code c)
  | c, _ -> String.make 1 c

let escaped st s =
  String.concat "" (List.map (escape_char st) (List.of_seq (String.to_seq s)))

(* A value as one CDATA section ([`Cdata]) or as escaped text. *)
let render_value st s =
  let has_end = ref false in
  for i = 0 to String.length s - 3 do
    if String.sub s i 3 = "]]>" then has_end := true
  done;
  if (not !has_end) && Gen.bool st then (`Cdata, "<![CDATA[" ^ s ^ "]]>")
  else (`Text, escaped st s)

let dense_doc : (string * T.t) Gen.t =
 fun st ->
  let comment = "<!-- c&<> -->" in
  let rec node depth =
    let tag = tag_gen st in
    let attrs =
      List.init (Gen.int_bound 2 st) (fun i ->
          let v = dense_value st in
          let quote = if Gen.bool st then '"' else '\'' in
          let body =
            String.concat ""
              (List.map
                 (fun c ->
                   if c = quote || c = '&' || c = '<' then escape_char st c
                   else String.make 1 c)
                 (List.of_seq (String.to_seq v)))
          in
          ( Printf.sprintf " k%d=%c%s%c" i quote body quote,
            T.attr (Printf.sprintf "k%d" i) v ))
    in
    let fanout = if depth >= 3 then 0 else Gen.int_bound 4 st in
    let kids =
      List.init fanout (fun _ ->
          if Gen.int_bound 2 st = 0 then begin
            let v = dense_value st in
            let kind, text = render_value st v in
            (kind, text, T.Value v)
          end
          else
            let text, tree = node (depth + 1) in
            (`Element, text, tree))
    in
    (* Two text runs in a row would read as one value: a comment
       between them keeps them apart.  Elsewhere a comment is a coin
       toss. *)
    let body = Buffer.create 64 in
    ignore
      (List.fold_left
         (fun prev (kind, text, _) ->
           if (prev = `Text && kind = `Text) || Gen.int_bound 3 st = 0 then
             Buffer.add_string body comment;
           Buffer.add_string body text;
           kind)
         `Element kids);
    if Gen.bool st then Buffer.add_string body comment;
    ( Printf.sprintf "<%s%s>%s</%s>" tag
        (String.concat "" (List.map fst attrs))
        (Buffer.contents body) tag,
      T.elt tag (List.map snd attrs @ List.map (fun (_, _, t) -> t) kids) )
  in
  node 0

let prop_dense_roundtrip =
  QCheck.Test.make ~name:"dense text parses to its tree" ~count:500
    (QCheck.make ~print:fst dense_doc)
    (fun (text, tree) -> T.equal (P.parse_string text) tree)

let prop_canonical_sort_isomorphic =
  QCheck.Test.make ~name:"canonical_sort is isomorphic" ~count:300 arb_tree
    (fun t -> T.isomorphic t (T.canonical_sort t))

let prop_sort_by_tag_isomorphic =
  QCheck.Test.make ~name:"sort_by_tag is isomorphic" ~count:300 arb_tree (fun t ->
      T.isomorphic t (T.sort_by_tag t))

let prop_fold_counts =
  QCheck.Test.make ~name:"fold visits every node" ~count:300 arb_tree (fun t ->
      T.fold (fun n _ -> n + 1) 0 t = T.node_count t)

let () =
  Alcotest.run "xmlcore"
    [
      ( "tree",
        [
          Alcotest.test_case "measures" `Quick test_tree_measures;
          Alcotest.test_case "isomorphism" `Quick test_isomorphism;
          Alcotest.test_case "sort_by_tag stable" `Quick test_sort_by_tag_stable;
          Alcotest.test_case "sort_by_tag by name" `Quick test_sort_by_tag_names;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "attributes" `Quick test_parse_attributes;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata/comment/pi" `Quick test_parse_cdata_comment_pi;
          Alcotest.test_case "whitespace" `Quick test_parse_whitespace;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
          Alcotest.test_case "error positions at the end of text" `Quick
            test_parse_error_positions;
          Alcotest.test_case "fragments" `Quick test_fragments;
        ] );
      ( "printer",
        [
          Alcotest.test_case "roundtrip" `Quick test_print_roundtrip;
          Alcotest.test_case "escapes" `Quick test_escapes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_print_parse;
            prop_print_parse_indent;
            prop_dense_roundtrip;
            prop_canonical_sort_isomorphic;
            prop_sort_by_tag_isomorphic;
            prop_fold_counts;
          ] );
    ]
