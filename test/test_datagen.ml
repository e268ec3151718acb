(* Generators: parameter conformance, determinism, query answerability. *)

module T = Xmlcore.Xml_tree
module Syn = Xdatagen.Synthetic
module Dblp = Xdatagen.Dblp_gen
module Xmark = Xdatagen.Xmark_gen
module Qgen = Xdatagen.Query_gen

let corpus_equal a b = Array.for_all2 T.equal a b

(* --- synthetic ------------------------------------------------------------ *)

let params = { Syn.l = 3; f = 5; a = 25; i = 0; p = 40 }

let test_name_roundtrip () =
  Alcotest.(check string) "name" "L3F5A25I0P40" (Syn.name params);
  let p = Syn.parse_name "L5F3A40I10P5" in
  Alcotest.(check string) "roundtrip" "L5F3A40I10P5" (Syn.name p);
  Alcotest.check_raises "malformed" (Invalid_argument "Synthetic.parse_name: bogus")
    (fun () -> ignore (Syn.parse_name "bogus"))

let test_synthetic_deterministic () =
  let a = Syn.dataset params 50 in
  let b = Syn.dataset params 50 in
  Alcotest.(check bool) "same docs" true (corpus_equal a b);
  let c = Syn.dataset ~data_seed:99 params 50 in
  Alcotest.(check bool) "seed changes docs" false (corpus_equal a c)

let test_synthetic_depth_bound () =
  let docs = Syn.dataset { params with l = 3 } 200 in
  (* element depth <= l, plus one level for value leaves *)
  Alcotest.(check bool) "depth bounded" true
    (Array.for_all (fun d -> T.depth d <= 4) docs)

let test_synthetic_identical_siblings () =
  let no_ident = Syn.dataset { params with i = 0 } 200 in
  let all_ident = Syn.dataset { params with i = 100; a = 0 } 200 in
  let frac docs =
    let n = Array.length docs in
    let k =
      Array.fold_left
        (fun k d -> if T.has_identical_siblings d then k + 1 else k)
        0 docs
    in
    float_of_int k /. float_of_int n
  in
  Alcotest.(check bool) "I=100 often has them" true (frac all_ident > 0.3);
  Alcotest.(check bool) "I=0 less than I=100" true (frac no_ident < frac all_ident)

let test_synthetic_occurrence () =
  (* With P=100 every schema node always occurs: all docs of one schema
     share the element structure (value leaves differ, so strip them). *)
  let rec strip = function
    | T.Element (d, cs) ->
      T.Element
        ( d,
          List.filter_map
            (fun c -> match c with T.Value _ -> None | e -> Some (strip e))
            cs )
    | leaf -> leaf
  in
  let docs = Syn.dataset { params with p = 100; a = 0 } 20 in
  let shape d = T.canonical_sort (strip d) in
  Alcotest.(check bool) "all same shape" true
    (Array.for_all (fun d -> T.equal (shape d) (shape docs.(0))) docs)

(* --- dblp ------------------------------------------------------------------ *)

let test_dblp_shapes () =
  let docs = Dblp.generate 300 in
  Alcotest.(check int) "count" 300 (Array.length docs);
  Alcotest.(check bool) "deterministic" true (corpus_equal docs (Dblp.generate 300));
  let kinds = Hashtbl.create 4 in
  Array.iter
    (fun d ->
      let k = T.tag d in
      Hashtbl.replace kinds k ();
      (* every record has key, title, author and year *)
      let child_names =
        List.filter_map
          (fun c -> match c with T.Element (t, _) -> Some t | _ -> None)
          (T.children d)
      in
      List.iter
        (fun f ->
          if not (List.mem f child_names) then
            Alcotest.failf "record lacks %s" f)
        [ "key"; "title"; "author"; "year" ])
    docs;
  Alcotest.(check bool) "several kinds" true (Hashtbl.length kinds >= 3)

let test_dblp_queries_answerable () =
  let docs = Dblp.generate 800 in
  let ask s = Xquery.Embedding.filter (Xquery.Xpath_parser.parse s) docs in
  Alcotest.(check bool) "inproceedings/title" true (ask "/inproceedings/title" <> []);
  Alcotest.(check bool) "book key Maier" true (ask "/book[key='Maier']/author" <> []);
  Alcotest.(check bool) "author David X" true
    (ask "/*/author[text='David Maier']" <> [])

(* --- xmark ------------------------------------------------------------------ *)

let test_xmark_shapes () =
  let docs = Xmark.generate ~identical_siblings:true 400 in
  Alcotest.(check bool) "deterministic" true
    (corpus_equal docs (Xmark.generate ~identical_siblings:true 400));
  Alcotest.(check bool) "all rooted at site" true
    (Array.for_all (fun d -> T.tag d = "site") docs);
  let with_ident =
    Array.exists T.has_identical_siblings docs
  in
  Alcotest.(check bool) "identical siblings present" true with_ident;
  let flat = Xmark.generate ~identical_siblings:false 400 in
  Alcotest.(check bool) "flat mode avoids them" true
    (not (Array.exists T.has_identical_siblings flat))

let test_xmark_queries_answerable () =
  let n = 1500 in
  let docs = Xmark.generate ~identical_siblings:true n in
  let ask s = Xquery.Embedding.filter (Xquery.Xpath_parser.parse s) docs in
  let q1 =
    Printf.sprintf
      "/site//item[location='United States']/mail/date[text='%s']" Xmark.q1_date
  in
  let q2 = "/site//person/*/age[text='32']" in
  let q3 =
    Printf.sprintf "//closed_auction[seller/person='%s']/date" (Xmark.a_person_id n)
  in
  Alcotest.(check bool) "q1 answerable" true (ask q1 <> []);
  Alcotest.(check bool) "q2 answerable" true (ask q2 <> []);
  Alcotest.(check bool) "q3 person exists" true (ask q3 <> [])

(* --- query generator --------------------------------------------------------- *)

let test_query_gen_matches_source () =
  let docs = Syn.dataset { params with i = 20 } 60 in
  let opts =
    { Qgen.size = 6; star_prob = 0.0; desc_prob = 0.0; value_prob = 1.0; wide = false }
  in
  let queries = Qgen.generate ~seed:5 ~opts docs 25 in
  Alcotest.(check int) "count" 25 (List.length queries);
  (* exact sub-patterns must match at least their source document *)
  List.iter
    (fun q ->
      if Xquery.Embedding.filter q docs = [] then
        Alcotest.failf "query %s has no answer" (Xquery.Pattern.to_string q))
    queries

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

let test_query_gen_generalized () =
  let docs = Syn.dataset { params with i = 20 } 60 in
  let opts =
    { Qgen.size = 6; star_prob = 0.5; desc_prob = 0.5; value_prob = 0.5; wide = false }
  in
  let queries = Qgen.generate ~seed:7 ~opts docs 25 in
  (* generalisation only widens the answer set *)
  List.iter
    (fun q ->
      if Xquery.Embedding.filter q docs = [] then
        Alcotest.failf "generalized query %s has no answer" (Xquery.Pattern.to_string q))
    queries;
  Alcotest.(check bool) "some wildcards appear" true
    (List.exists
       (fun q ->
         let s = Xquery.Pattern.to_string q in
         String.contains s '*' || contains_sub s "//")
       queries)

let () =
  Alcotest.run "datagen"
    [
      ( "synthetic",
        [
          Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
          Alcotest.test_case "depth bound" `Quick test_synthetic_depth_bound;
          Alcotest.test_case "identical siblings" `Quick
            test_synthetic_identical_siblings;
          Alcotest.test_case "occurrence" `Quick test_synthetic_occurrence;
        ] );
      ( "dblp",
        [
          Alcotest.test_case "shapes" `Quick test_dblp_shapes;
          Alcotest.test_case "table 8 queries" `Quick test_dblp_queries_answerable;
        ] );
      ( "xmark",
        [
          Alcotest.test_case "shapes" `Quick test_xmark_shapes;
          Alcotest.test_case "table 4 queries" `Quick test_xmark_queries_answerable;
        ] );
      ( "query-gen",
        [
          Alcotest.test_case "matches source" `Quick test_query_gen_matches_source;
          Alcotest.test_case "generalized" `Quick test_query_gen_generalized;
        ] );
    ]
