(* Property-based equivalence of every query path against the brute-force
   embedding oracle, plus unit tests for the XPath parser and matcher
   internals.  Trees use a tiny alphabet so identical siblings and deep
   sharing occur constantly — the regime where naive matching fails. *)

module T = Xmlcore.Xml_tree
module Gen = QCheck.Gen
module Pattern = Xquery.Pattern

let tags = [| "a"; "b"; "c"; "d" |]
let vals = [| "v0"; "v1"; "v2" |]

let doc_gen : T.t Gen.t =
  let open Gen in
  let rec tree depth st =
    let fanout = if depth >= 4 then 0 else int_bound (4 - depth) st in
    let kids =
      List.init fanout (fun _ ->
          if depth >= 1 && int_bound 3 st = 0 then T.text (oneofa vals st)
          else tree (depth + 1) st)
    in
    T.elt (oneofa tags st) kids
  in
  tree 0

let corpus_gen = Gen.(list_size (int_range 1 15) doc_gen)

(* A test case: a corpus plus a seed from which queries are derived. *)
let case_gen = Gen.pair corpus_gen (Gen.int_bound 10_000)

let case_print (docs, seed) =
  Printf.sprintf "seed=%d docs=[%s]" seed
    (String.concat "; " (List.map (Format.asprintf "%a" T.pp) docs))

let queries_of ~seed docs =
  let opts =
    {
      Xdatagen.Query_gen.size = 5;
      star_prob = 0.2;
      desc_prob = 0.2;
      value_prob = 0.5;
      wide = false;
    }
  in
  Xdatagen.Query_gen.generate ~seed ~opts docs 6

let mk_prop name ~count f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print:case_print case_gen) f)

let oracle pattern docs = Xquery.Embedding.filter pattern docs

let prop_engine_vs_oracle config_name config (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build ~config docs in
  List.for_all
    (fun q ->
      let got = Xseq.query index q in
      let want = oracle q docs in
      if got <> want then
        QCheck.Test.fail_reportf "%s: query %s: got [%s] want [%s]" config_name
          (Pattern.to_string q)
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int want))
      else true)
    (queries_of ~seed docs)

let engine_prop name config =
  mk_prop ("engine = oracle: " ^ name) ~count:120 (prop_engine_vs_oracle name config)

(* Naive matching may only ADD results (false alarms), never lose any. *)
let prop_naive_superset (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build docs in
  let labeled = Xseq.labeled index in
  List.for_all
    (fun q ->
      match
        Xquery.Engine.compile ~strategy:(Xseq.strategy index)
          ~value_mode:(Xseq.value_mode index) labeled q
      with
      | exception Xquery.Instantiate.Too_many _ -> true (* fallback path *)
      | compiled ->
        let naive =
          Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Naive labeled compiled
        in
        let exact =
          Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Constraint labeled
            compiled
        in
        List.for_all (fun d -> List.mem d naive) exact)
    (queries_of ~seed docs)

(* Persistence: a saved-and-reloaded index answers every query as the
   original. *)
let prop_save_load (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build docs in
  let path = Filename.temp_file "xseq_prop" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xseq.save index path;
      let restored = Xseq.load path in
      List.for_all
        (fun q -> Xseq.query index q = Xseq.query restored q)
        (queries_of ~seed docs))

let prop_baseline name build query (docs, seed) =
  let docs = Array.of_list docs in
  let b = build docs in
  List.for_all
    (fun q ->
      let got = query b q in
      let want = oracle q docs in
      if got <> want then
        QCheck.Test.fail_reportf "%s: query %s: got [%s] want [%s]" name
          (Pattern.to_string q)
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int want))
      else true)
    (queries_of ~seed docs)

(* --- unit tests -------------------------------------------------------- *)

let e = T.elt

let test_xpath_parser () =
  let check s expected =
    Alcotest.(check string) s expected (Pattern.to_string (Xquery.Xpath_parser.parse s))
  in
  check "/a/b/c" "/a/b/c";
  check "//a" "//a";
  check "/a//b" "/a//b";
  check "/a/*/c" "/a/*/c";
  check "/site//item[location='United States']/mail/date[text='07/05/2000']"
    "/site//item[/location/text()=\"United States\"][/mail/date/text()=\"07/05/2000\"]";
  check "//closed_auction[seller/person='person11304']/date[text='12/15/1999']"
    "//closed_auction[/seller/person/text()=\"person11304\"][/date/text()=\"12/15/1999\"]"

let test_xpath_parser_errors () =
  let fails s =
    match Xquery.Xpath_parser.parse s with
    | exception Xquery.Xpath_parser.Syntax_error _ -> ()
    | _ -> Alcotest.failf "expected syntax error for %s" s
  in
  fails "";
  fails "a/b";
  fails "/a[";
  fails "/a]";
  fails "/a/b extra"

let test_pattern_size () =
  let p = Xquery.Xpath_parser.parse "/a[b='x']/c" in
  Alcotest.(check int) "size" 4 (Pattern.size p)

let test_embedding_injective () =
  (* One document node cannot serve two identical query siblings. *)
  let doc = e "P" [ e "D" [ e "M" []; e "L" [] ] ] in
  let q_two_d =
    Pattern.(elt "P" [ elt "D" [ elt "M" [] ]; elt "D" [ elt "L" [] ] ])
  in
  Alcotest.(check bool) "injective" false (Xquery.Embedding.matches q_two_d doc);
  let doc2 = e "P" [ e "D" [ e "M" [] ]; e "D" [ e "L" [] ] ] in
  Alcotest.(check bool) "two Ds" true (Xquery.Embedding.matches q_two_d doc2);
  (* Unordered: sibling order is irrelevant. *)
  let doc3 = e "P" [ e "D" [ e "L" [] ]; e "D" [ e "M" [] ] ] in
  Alcotest.(check bool) "unordered" true (Xquery.Embedding.matches q_two_d doc3)

let test_naive_false_alarm () =
  (* Figure 4 at matcher level: naive mode reports the false alarm that
     constraint mode rejects. *)
  let d = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let labeled = Xseq.labeled index in
  let strategy = Xseq.strategy index in
  let pattern = Pattern.(elt "P" [ elt "L" [ elt "S" []; elt "B" [] ] ]) in
  let compiled =
    Xquery.Engine.compile ~strategy ~value_mode:(Xseq.value_mode index) labeled pattern
  in
  let naive = Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Naive labeled compiled in
  let exact = Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Constraint labeled compiled in
  Alcotest.(check (list int)) "naive false alarm" [ 0 ] naive;
  Alcotest.(check (list int)) "constraint rejects" [] exact

let test_matcher_stats () =
  let d = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let index = Xseq.build (Array.of_list [ d; d ]) in
  let stats = Xquery.Matcher.create_stats () in
  let _ = Xseq.query_xpath ~stats index "/P/L/S" in
  Alcotest.(check bool) "probes counted" true (stats.probes > 0);
  Alcotest.(check bool) "candidates counted" true (stats.candidates > 0);
  Alcotest.(check bool) "matches counted" true (stats.matches > 0)

let test_instantiate_star () =
  let d = e "P" [ e "R" [ e "M" [] ]; e "D" [ e "M" [] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let pattern = Pattern.(elt "P" [ star [ elt "M" [] ] ]) in
  let cnodes =
    Xquery.Instantiate.run ~value_mode:Sequencing.Encoder.Hashed
      (Xseq.symbols index) pattern
  in
  Alcotest.(check int) "star instantiates to R and D" 2 (List.length cnodes)

let test_instantiate_descendant () =
  let d = e "a" [ e "b" [ e "c" [ e "d" [] ] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let pattern = Pattern.(elt "a" [ elt ~axis:Descendant "d" [] ]) in
  let cnodes =
    Xquery.Instantiate.run ~value_mode:Sequencing.Encoder.Hashed
      (Xseq.symbols index) pattern
  in
  Alcotest.(check int) "one concrete d" 1 (List.length cnodes);
  (* no zero-depth // self match: the only 'a' path is the root itself *)
  let p2 = Pattern.(elt "a" [ elt ~axis:Descendant "a" [] ]) in
  let c2 = Xquery.Instantiate.run ~value_mode:Sequencing.Encoder.Hashed
      (Xseq.symbols index) p2 in
  Alcotest.(check int) "no self match" 0 (List.length c2)

let test_query_seq_permutations () =
  let d = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  let pattern =
    Pattern.(elt "P" [ elt "L" [ elt "S" [] ]; elt "L" [ elt "B" [] ] ])
  in
  let cnodes =
    Xquery.Instantiate.run ~value_mode:Sequencing.Encoder.Hashed
      (Xseq.symbols index) pattern
  in
  let compiled =
    List.concat_map (Xquery.Query_seq.compile ~strategy:(Xseq.strategy index) (Xseq.symbols index)) cnodes
  in
  (* Two identical L siblings: both subtree orders must be generated. *)
  Alcotest.(check int) "two permutations" 2 (List.length compiled)

(* Identical predicates must not make compilation exponential: a group
   of k equal siblings has one distinct arrangement, not k!, and every
   variant is charged to the expansion budget as it is generated.  Work
   is measured in allocated words (deterministic); the bound is
   quadratic in the pattern size (8x the worst seen over 400 cases),
   where enumerating all k! permutations first exceeds it from k = 8 on
   and exhausts memory by k = 12.  Compilation either succeeds or refuses with
   [Too_many] — never after exponential work. *)
let rec pattern_of_tree (t : T.t) =
  match t with
  | T.Value s -> Pattern.text s
  | T.Element (tag, kids) ->
    Pattern.elt tag (List.map pattern_of_tree kids)

let prop_identical_groups_polynomial =
  let gen =
    Gen.(pair (int_range 2 12) (map (fun t -> T.elt "g" [ t ]) doc_gen))
  in
  let print (k, t) = Printf.sprintf "k=%d %s" k (Xmlcore.Xml_printer.to_string t) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"identical groups compile in polynomial work" ~count:60
       (QCheck.make ~print gen) (fun (k, t) ->
         let doc = T.elt "P" (List.init k (fun _ -> t)) in
         let index = Xseq.build [| doc |] in
                let pattern = Pattern.elt "P" (List.init k (fun _ -> pattern_of_tree t)) in
         let size = Pattern.size pattern in
         let w0 = Gc.minor_words () in
         let outcome =
           match
             List.concat_map
               (Xquery.Query_seq.compile ~strategy:(Xseq.strategy index) (Xseq.symbols index))
               (Xquery.Instantiate.run ~value_mode:Sequencing.Encoder.Hashed
      (Xseq.symbols index) pattern)
           with
           | compiled -> `Compiled (List.length compiled)
           | exception Xquery.Instantiate.Too_many _ -> `Refused
         in
         let words = Gc.minor_words () -. w0 in
         let bound = 3000. *. float_of_int (size * size) in
         if words > bound then
           QCheck.Test.fail_reportf "k=%d size=%d: %.0f words > bound %.0f" k size words bound;
         (match outcome with
          | `Compiled 0 -> QCheck.Test.fail_report "no sequence for a matching query"
          | `Compiled _ ->
            if Xseq.query index pattern <> [ 0 ] then
              QCheck.Test.fail_report "the document does not answer"
          | `Refused -> ());
         true))

(* Regression: a query branch reaching *through* a duplicated path (here
   d.c) must be tried both inside the same d.c block as its sibling branch
   and in a different one (junction normalisation + set partitions).
   Found by the oracle-equivalence property. *)
let test_regression_junction_blocks () =
  let doc =
    e "d"
      [
        e "c" [ e "c" [ e "c" [ e "d" [] ] ]; e "d" [ e "a" [ e "d" [] ]; e "c" [] ] ];
        e "c" [ e "a" [ e "c" [] ] ];
      ]
  in
  let index = Xseq.build [| doc |] in
  (* //d needs the d under the FIRST c, while c/a needs the SECOND c. *)
  Alcotest.(check (list int)) "cross-block match" [ 0 ]
    (Xseq.query_xpath index "/d[//d][/c/a]")

(* Regression: identical-sibling permutations must survive sequencing —
   equal paths need equal scheduler priority so the rank tie-break can
   realise both orders (dense lexicographic ranks).  Found by the
   oracle-equivalence property on the depth-first configuration. *)
let test_regression_permutation_ranks () =
  let doc =
    e "b"
      [
        e "b" [];
        e "d" [];
        e "d" [ T.text "v0"; e "a" [ e "d" [ e "c" [] ]; T.text "v1" ]; e "c" [ e "a" [] ] ];
      ]
  in
  let config =
    { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } }
  in
  let index = Xseq.build ~config [| doc |] in
  let q = Pattern.(star [ elt "b" []; elt "d" []; elt "d" [ text "v0" ] ]) in
  Alcotest.(check (list int)) "bare d + d(v0)" [ 0 ] (Xseq.query index q)

let test_explain () =
  let d = e "P" [ e "R" [ e "M" [] ]; e "D" [ e "M" [] ] ] in
  let index = Xseq.build (Array.of_list [ d; d ]) in
  let ex = Xseq.explain index Pattern.(elt "P" [ star [ elt "M" [] ] ]) in
  Alcotest.(check int) "instantiations" 2 ex.Xquery.Engine.instantiations;
  Alcotest.(check int) "sequences" 2 ex.sequences;
  Alcotest.(check int) "results" 2 ex.results;
  Alcotest.(check bool) "probes" true (ex.stats.Xquery.Matcher.probes > 0);
  Alcotest.(check int) "texts" 2 (List.length ex.sequence_texts)

let test_parents_across_descendant () =
  let d = e "a" [ e "b" [ e "c" [ e "d" [] ] ] ] in
  let index = Xseq.build (Array.of_list [ d ]) in
  Alcotest.(check (list int)) "a//d" [ 0 ] (Xseq.query_xpath index "/a//d");
  Alcotest.(check (list int)) "a//c/d" [ 0 ] (Xseq.query_xpath index "/a//c/d");
  Alcotest.(check (list int)) "a//b//d" [ 0 ] (Xseq.query_xpath index "/a//b//d")

(* --- assembling -------------------------------------------------------- *)

let () =
  let cfg sequencing = { Xseq.default_config with sequencing } in
  Alcotest.run "query"
    [
      ( "unit",
        [
          Alcotest.test_case "xpath parser" `Quick test_xpath_parser;
          Alcotest.test_case "xpath errors" `Quick test_xpath_parser_errors;
          Alcotest.test_case "pattern size" `Quick test_pattern_size;
          Alcotest.test_case "embedding injective" `Quick test_embedding_injective;
          Alcotest.test_case "naive false alarm" `Quick test_naive_false_alarm;
          Alcotest.test_case "matcher stats" `Quick test_matcher_stats;
          Alcotest.test_case "instantiate star" `Quick test_instantiate_star;
          Alcotest.test_case "instantiate descendant" `Quick test_instantiate_descendant;
          Alcotest.test_case "query permutations" `Quick test_query_seq_permutations;
          prop_identical_groups_polynomial;
          Alcotest.test_case "// parent pointers" `Quick test_parents_across_descendant;
          Alcotest.test_case "regression: junction blocks" `Quick
            test_regression_junction_blocks;
          Alcotest.test_case "regression: permutation ranks" `Quick
            test_regression_permutation_ranks;
          Alcotest.test_case "explain" `Quick test_explain;
        ] );
      ( "oracle-equivalence",
        [
          engine_prop "probability" Xseq.default_config;
          engine_prop "depth-first" (cfg (Xseq.Depth_first { canonical = true }));
          engine_prop "breadth-first" (cfg (Xseq.Breadth_first { canonical = true }));
          engine_prop "text-mode"
            { Xseq.default_config with value_mode = Sequencing.Encoder.Text };
          mk_prop "dataguide = oracle" ~count:80
            (prop_baseline "dataguide" Xbaseline.Dataguide.build (fun b q ->
                 Xbaseline.Dataguide.query b q));
          mk_prop "xiss = oracle" ~count:80
            (prop_baseline "xiss" Xbaseline.Xiss.build (fun b q ->
                 Xbaseline.Xiss.query b q));
          mk_prop "vist = oracle" ~count:80
            (prop_baseline "vist" Xbaseline.Vist.build (fun b q ->
                 Xbaseline.Vist.query b q));
          mk_prop "naive superset of constraint" ~count:80 prop_naive_superset;
          mk_prop "save/load preserves answers" ~count:50 prop_save_load;
        ] );
    ]
