(* End-to-end tests of the Xseq facade, including the paper's worked
   examples (Figures 1–5). *)

module T = Xmlcore.Xml_tree

let e = T.elt
let v = T.text

(* Figure 1's project document. *)
let project_doc =
  e "P"
    [
      v "xml";
      e "R" [ e "M" [ v "tom" ]; e "L" [ v "newyork" ] ];
      e "D"
        [
          e "M" [ v "johnson" ];
          e "U" [ e "M" [ v "mary" ]; e "N" [ v "GUI" ] ];
          e "U" [ e "N" [ v "engine" ] ];
          e "L" [ v "boston" ];
        ];
    ]

(* Figure 4: D = P(L(S), L(B)) must NOT match Q = P(L(S,B)). *)
let fig4_doc = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ]
let fig4_doc_conj = e "P" [ e "L" [ e "S" []; e "B" [] ] ]

let build ?config docs = Xseq.build ?config (Array.of_list docs)

let check_query ?(msg = "query") index xpath expected =
  Alcotest.(check (list int)) msg expected (Xseq.query_xpath index xpath)

let test_false_alarm () =
  (* Index both documents; the conjunctive query must only return the
     document where one L has both S and B. *)
  let index = build [ fig4_doc; fig4_doc_conj ] in
  let q = Xseq.Pattern.(elt "P" [ elt "L" [ elt "S" []; elt "B" [] ] ]) in
  Alcotest.(check (list int)) "no false alarm" [ 1 ] (Xseq.query index q);
  (* The split query P(L(S), L(B)) requires two distinct L siblings. *)
  let q2 = Xseq.Pattern.(elt "P" [ elt "L" [ elt "S" [] ]; elt "L" [ elt "B" [] ] ]) in
  Alcotest.(check (list int)) "identical siblings" [ 0 ] (Xseq.query index q2)

let test_false_dismissal () =
  (* Figure 5: isomorphic forms must both be found. *)
  let d1 = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let d2 = e "P" [ e "L" [ e "B" [] ]; e "L" [ e "S" [] ] ] in
  let index = build [ d1; d2 ] in
  let q = Xseq.Pattern.(elt "P" [ elt "L" [ elt "S" [] ]; elt "L" [ elt "B" [] ] ]) in
  Alcotest.(check (list int)) "both isomorphic forms" [ 0; 1 ] (Xseq.query index q)

let test_project_queries () =
  let index = build [ project_doc ] in
  check_query index "/P/R/L" [ 0 ];
  check_query index "/P/D/U/N" [ 0 ];
  check_query index "/P//N" [ 0 ];
  check_query index "/P/*/L" [ 0 ];
  check_query index "/P/R[L='newyork']" [ 0 ];
  check_query index "/P/R[L='boston']" [];
  check_query index "/P/D[L='boston']/U[N='GUI']" [ 0 ];
  check_query index "//U[M='mary']" [ 0 ];
  check_query index "//U[M='tom']" [];
  (* The paper's Section 3.1 example: branching query with two value
     predicates. *)
  check_query index "/P[R/L='newyork']/D[L='boston']" [ 0 ];
  check_query index "/P[R/L='boston']/D[L='newyork']" []

let test_wildcard_star_descendant () =
  let index = build [ project_doc ] in
  check_query index "/P/*[N='engine']" [];
  (* U is two levels below P *)
  check_query index "/P//*[N='engine']" [ 0 ];
  check_query index "/P/D/*[N='engine']" [ 0 ]

let test_two_identical_units () =
  (* The document has two U units under D; ask for both in one query. *)
  let index = build [ project_doc ] in
  check_query index "/P/D[U/N='GUI'][U/N='engine']" [ 0 ];
  (* A single U with both names does not exist. *)
  let q =
    Xseq.Pattern.(
      elt "P" [ elt "D" [ elt "U" [ elt "N" [ text "GUI" ]; elt "N" [ text "engine" ] ] ] ])
  in
  Alcotest.(check (list int)) "conjunctive unit" [] (Xseq.query index q)

let test_multi_doc () =
  let docs =
    [
      e "P" [ e "R" [ e "L" [ v "boston" ] ] ];
      e "P" [ e "R" [ e "L" [ v "newyork" ] ] ];
      e "P" [ e "D" [ e "L" [ v "boston" ] ] ];
      e "P" [ e "R" [ e "L" [ v "boston" ] ]; e "D" [ e "L" [ v "boston" ] ] ];
    ]
  in
  let index = build docs in
  check_query index "/P/R[L='boston']" [ 0; 3 ];
  check_query index "/P/D[L='boston']" [ 2; 3 ];
  check_query index "/P[R/L='boston']/D[L='boston']" [ 3 ];
  check_query index "//L[text='boston']" [ 0; 2; 3 ];
  check_query index "/P/R" [ 0; 1; 3 ]

let test_strategies_agree () =
  (* All queryable sequencing strategies must return identical answers. *)
  let docs =
    [
      project_doc;
      fig4_doc;
      fig4_doc_conj;
      e "P" [ e "R" [ e "M" [ v "tom" ] ]; e "D" [ e "L" [ v "boston" ] ] ];
    ]
  in
  let queries =
    [ "/P//L"; "/P/D[L='boston']"; "/P[L/S]"; "//M[text='tom']"; "/P/L/B" ]
  in
  let configs =
    [
      ("probability", Xseq.default_config);
      ( "depth-first",
        { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } } );
      ( "breadth-first",
        { Xseq.default_config with sequencing = Xseq.Breadth_first { canonical = true } } );
      ( "text-mode",
        { Xseq.default_config with value_mode = Sequencing.Encoder.Text } );
    ]
  in
  let reference = build docs in
  List.iter
    (fun (name, config) ->
      let index = build ~config docs in
      List.iter
        (fun q ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s" name q)
            (Xseq.query_xpath reference q) (Xseq.query_xpath index q))
        queries)
    configs

let test_text_prefix () =
  let config = { Xseq.default_config with value_mode = Sequencing.Encoder.Text } in
  let docs =
    [
      e "P" [ e "L" [ v "boston" ] ];
      e "P" [ e "L" [ v "bost" ] ];
      e "P" [ e "L" [ v "b" ] ];
      e "P" [ e "L" [ v "newyork" ] ];
    ]
  in
  let index = build ~config docs in
  check_query index "/P[L='boston']" [ 0 ];
  check_query index "/P[L='bost']" [ 1 ];
  check_query index "/P[L^='bost']" [ 0; 1 ];
  check_query index "/P[L^='b']" [ 0; 1; 2 ];
  check_query index "/P[L^='x']" []

let test_size_accessors () =
  let index = build [ project_doc; fig4_doc ] in
  Alcotest.(check int) "doc count" 2 (Xseq.doc_count index);
  Alcotest.(check bool) "nodes > 0" true (Xseq.node_count index > 0);
  Alcotest.(check bool) "size formula" true
    (Xseq.size_bytes index = (4 * 2) + (8 * Xseq.node_count index));
  Alcotest.(check bool) "avg seq len" true (Xseq.average_sequence_length index > 0.);
  Alcotest.(check bool) "paths > 0" true (Xseq.distinct_paths index > 0)

(* [on_phase] sees the four build phases in order and changes nothing. *)
let test_build_phases () =
  let docs = [| project_doc; fig4_doc |] in
  let seen = ref [] in
  let observed =
    Xseq.build ~on_phase:(fun name _ -> seen := name :: !seen) docs
  in
  Alcotest.(check (list string)) "phases"
    [ "flatten+intern"; "counts"; "encode"; "sort+label" ]
    (List.rev !seen);
  Alcotest.(check bool) "same index" true
    (Fingerprint.of_index observed = Fingerprint.of_index (Xseq.build docs))

(* Builds running on threads of one domain — a seal beside a background
   compaction — each own their flattening buffers and symbol table, so
   the concurrent ones must reproduce the sequential ones exactly. *)
let test_concurrent_builds () =
  let corpora =
    [|
      Xdatagen.Dblp_gen.generate ~seed:3 1500;
      Xdatagen.Xmark_gen.generate ~seed:4 ~identical_siblings:true 400;
    |]
  in
  let fingerprint docs = Fingerprint.of_index (Xseq.build docs) in
  let expected = Array.map fingerprint corpora in
  let results = Array.make_matrix 4 8 "" in
  let threads =
    Array.init 4 (fun t ->
        Thread.create
          (fun () ->
            for round = 0 to 7 do
              results.(t).(round) <- fingerprint corpora.(t mod 2)
            done)
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun t rounds ->
      Array.iter
        (fun r ->
          Alcotest.(check bool)
            (Printf.sprintf "thread %d equals the sequential build" t)
            true (r = expected.(t mod 2)))
        rounds)
    results

let test_document_roundtrip () =
  let index = build [ project_doc ] in
  Alcotest.(check bool) "kept document" true
    (T.equal (Xseq.document index 0) project_doc);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Xseq.document: unknown id") (fun () ->
      ignore (Xseq.document index 7))

(* --- persistence ---------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "xseq_test" ".idx" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let save_load_roundtrip config docs queries () =
  with_temp_file (fun path ->
      let original = build ~config docs in
      Xseq.save original path;
      let restored = Xseq.load path in
      Alcotest.(check int) "doc count" (Xseq.doc_count original)
        (Xseq.doc_count restored);
      Alcotest.(check int) "node count" (Xseq.node_count original)
        (Xseq.node_count restored);
      Alcotest.(check bool) "documents kept" true
        (T.equal (Xseq.document restored 0) (Xseq.document original 0));
      List.iter
        (fun q ->
          Alcotest.(check (list int)) q (Xseq.query_xpath original q)
            (Xseq.query_xpath restored q))
        queries)

let roundtrip_docs = [ project_doc; fig4_doc; fig4_doc_conj ]

let roundtrip_queries =
  [ "/P//L"; "/P/D[L='boston']"; "/P[L/S]"; "//M[text='tom']"; "/P/D/U/N" ]

let test_save_load_default =
  save_load_roundtrip Xseq.default_config roundtrip_docs roundtrip_queries

let test_save_load_df =
  save_load_roundtrip
    { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } }
    roundtrip_docs roundtrip_queries

let test_save_load_text =
  save_load_roundtrip
    { Xseq.default_config with value_mode = Sequencing.Encoder.Text }
    roundtrip_docs roundtrip_queries

let test_save_load_sampled =
  save_load_roundtrip
    { Xseq.default_config with sample_fraction = 0.5; sample_seed = 9 }
    roundtrip_docs roundtrip_queries

(* Builds leave nothing behind: each index owns its symbol table, so 30
   builds over fresh DBLP records, each index dropped, keep the live heap
   flat. *)
let test_builds_do_not_leak () =
  let live_after_build i =
    ignore
      (Sys.opaque_identity
         (Xseq.build (Xdatagen.Dblp_gen.generate ~seed:(1000 + i) 1000)));
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let live = Array.init 30 (fun i -> live_after_build (i + 1)) in
  let second = live.(1) and last = live.(29) in
  if float_of_int last > 1.2 *. float_of_int second then
    Alcotest.failf "live words %d after build 30, %d after build 2" last second

let test_save_rejects () =
  let custom =
    build
      ~config:
        {
          Xseq.default_config with
          sequencing = Xseq.Custom (fun _ -> Sequencing.Strategy.Depth_first);
        }
      [ project_doc ]
  in
  Alcotest.check_raises "custom strategy"
    (Invalid_argument "Xseq.save: custom strategies cannot be persisted")
    (fun () -> Xseq.save custom "/tmp/never-written.idx")

let test_load_rejects_garbage () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      Marshal.to_channel oc (1, "not an index") [];
      close_out oc;
      match Xseq.load path with
      | _ -> Alcotest.fail "expected failure"
      | exception _ -> ())

(* --- invariances ----------------------------------------------------------- *)

let test_weights_do_not_change_results () =
  (* Eq. 6 weights reorder sequences but must never change answers. *)
  let docs = Array.of_list [ project_doc; fig4_doc; fig4_doc_conj ] in
  let weighted =
    Xseq.build
      ~config:
        {
          Xseq.default_config with
          sequencing =
            Xseq.Probability_weighted
              (fun _ p ->
                1.0 +. float_of_int (Sequencing.Symtab.Path.to_int p mod 7));
        }
      docs
  in
  let plain = Xseq.build docs in
  List.iter
    (fun q ->
      Alcotest.(check (list int)) q (Xseq.query_xpath plain q)
        (Xseq.query_xpath weighted q))
    roundtrip_queries

let test_random_index_rejects_queries () =
  let index =
    build ~config:{ Xseq.default_config with sequencing = Xseq.Random 3 } [ project_doc ]
  in
  (match Xseq.query_xpath index "/P/R" with
   | _ -> Alcotest.fail "expected Unsupported_strategy"
   | exception Xquery.Query_seq.Unsupported_strategy _ -> ());
  (* Batched execution must reject identically — the whole batch fails
     with the same exception a sequential loop would hit first, for any
     number of domains. *)
  let patterns = Array.map Xseq.Xpath.parse [| "/P/R"; "/P//L" |] in
  List.iter
    (fun domains ->
      match Xseq.query_batch ~domains index patterns with
      | _ -> Alcotest.failf "expected Unsupported_strategy (%d domains)" domains
      | exception Xquery.Query_seq.Unsupported_strategy _ -> ())
    [ 1; 2 ]

let test_empty_corpus () =
  let index = Xseq.build [||] in
  Alcotest.(check int) "no docs" 0 (Xseq.doc_count index);
  Alcotest.(check (list int)) "no results" [] (Xseq.query_xpath index "/P/R")

let test_prepared_queries () =
  let index = build [ project_doc; fig4_doc; fig4_doc_conj ] in
  List.iter
    (fun q ->
      let pattern = Xseq.Xpath.parse q in
      let prepared = Xseq.prepare index pattern in
      Alcotest.(check (list int)) q (Xseq.query index pattern)
        (Xseq.run_prepared index prepared);
      (* prepared queries are reusable *)
      Alcotest.(check (list int)) (q ^ " (again)") (Xseq.query index pattern)
        (Xseq.run_prepared index prepared))
    [ "/P//L"; "/P/D[L='boston']"; "/P[L/S]"; "/P/*/M" ]

let test_generation_stamp () =
  (* Every index gets a distinct generation; prepared queries are pinned
     to the index they were compiled against. *)
  let a = build [ project_doc ] in
  let b = build [ project_doc ] in
  Alcotest.(check bool) "generations distinct" true
    (Xseq.generation a <> Xseq.generation b);
  let p = Xseq.prepare a (Xseq.Xpath.parse "/P/R/L") in
  Alcotest.(check (list int)) "runs on its own index" [ 0 ]
    (Xseq.run_prepared a p);
  (match Xseq.run_prepared b p with
   | _ -> Alcotest.fail "expected Invalid_argument"
   | exception Invalid_argument msg ->
     (* "Xseq.run_prepared: prepared query belongs to index generation
        %d, not %d" *)
     Alcotest.(check bool) "message names the mismatch" true
       (String.length msg >= 17
        && String.sub msg 0 17 = "Xseq.run_prepared"));
  (* load produces a fresh generation too *)
  with_temp_file (fun path ->
      Xseq.save a path;
      let restored = Xseq.load path in
      Alcotest.(check bool) "load gets fresh generation" true
        (Xseq.generation restored <> Xseq.generation a);
      match Xseq.run_prepared restored p with
      | _ -> Alcotest.fail "expected Invalid_argument after load"
      | exception Invalid_argument _ -> ())

let test_contains () =
  let index = build [ project_doc; fig4_doc ] in
  let p = Xseq.Xpath.parse "/P/L/S" in
  Alcotest.(check bool) "doc 1 matches" true (List.mem 1 (Xseq.query index p));
  Alcotest.(check bool) "doc 0 does not" false (List.mem 0 (Xseq.query index p))

let () =
  Alcotest.run "xseq"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "fig4 false alarm" `Quick test_false_alarm;
          Alcotest.test_case "fig5 false dismissal" `Quick test_false_dismissal;
          Alcotest.test_case "project queries" `Quick test_project_queries;
          Alcotest.test_case "wildcards" `Quick test_wildcard_star_descendant;
          Alcotest.test_case "identical units" `Quick test_two_identical_units;
          Alcotest.test_case "multi doc" `Quick test_multi_doc;
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
          Alcotest.test_case "text prefix" `Quick test_text_prefix;
          Alcotest.test_case "size accessors" `Quick test_size_accessors;
          Alcotest.test_case "build phases" `Quick test_build_phases;
          Alcotest.test_case "concurrent builds" `Quick test_concurrent_builds;
          Alcotest.test_case "builds do not leak" `Quick test_builds_do_not_leak;
          Alcotest.test_case "document roundtrip" `Quick test_document_roundtrip;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "save/load default" `Quick test_save_load_default;
          Alcotest.test_case "save/load depth-first" `Quick test_save_load_df;
          Alcotest.test_case "save/load text mode" `Quick test_save_load_text;
          Alcotest.test_case "save/load sampled" `Quick test_save_load_sampled;
          Alcotest.test_case "save rejections" `Quick test_save_rejects;
          Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
        ] );
      ( "invariances",
        [
          Alcotest.test_case "weights preserve results" `Quick
            test_weights_do_not_change_results;
          Alcotest.test_case "random index rejects queries" `Quick
            test_random_index_rejects_queries;
          Alcotest.test_case "empty corpus" `Quick test_empty_corpus;
          Alcotest.test_case "prepared queries" `Quick test_prepared_queries;
          Alcotest.test_case "generation stamp" `Quick test_generation_stamp;
          Alcotest.test_case "contains" `Quick test_contains;
        ] );
    ]
