(* Trie construction, labelling invariants, path links, document table. *)

module T = Xmlcore.Xml_tree
module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module Path = Symtab.Path
module Enc = Sequencing.Encoder
module S = Sequencing.Strategy
module Trie = Xindex.Trie
module Labeled = Xindex.Labeled
module Gen = QCheck.Gen

let e = T.elt

(* The symbol table every path and index below belongs to. *)
let sy = Symtab.create ()

let p_of names = Path.of_list sy (List.map (D.tag sy) names)

let seq_of names_list = Array.of_list (List.map p_of names_list)

(* --- trie ---------------------------------------------------------------- *)

let test_trie_sharing () =
  let t = Trie.create () in
  Trie.insert t (seq_of [ [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "c" ] ]) ~doc:0;
  Trie.insert t (seq_of [ [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "d" ] ]) ~doc:1;
  (* shared prefix a, a.b; two leaves *)
  Alcotest.(check int) "nodes" 4 (Trie.node_count t);
  Alcotest.(check int) "docs" 2 (Trie.doc_count t);
  Trie.insert t (seq_of [ [ "a" ]; [ "a"; "b" ] ]) ~doc:2;
  Alcotest.(check int) "prefix reuses nodes" 4 (Trie.node_count t)

let test_trie_empty_rejected () =
  let t = Trie.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Trie.insert: empty sequence")
    (fun () -> Trie.insert t [||] ~doc:0)

(* --- labelling ----------------------------------------------------------- *)

let doc_corpus =
  [|
    e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ];
    e "P" [ e "L" [ e "S" []; e "B" [] ] ];
    e "P" [ e "D" [ e "L" [] ] ];
  |]

let labeled_of docs =
  let t = Trie.create () in
  Array.iteri
    (fun i d -> Trie.insert t (Enc.encode sy ~strategy:S.Depth_first d) ~doc:i)
    docs;
  Labeled.of_trie sy t

let test_labeled_basic () =
  let l = labeled_of doc_corpus in
  Alcotest.(check int) "doc count" 3 (Labeled.doc_count l);
  Alcotest.(check int) "root pre" 0 (Labeled.root_pre l);
  Alcotest.(check int) "root post covers all" (Labeled.node_count l)
    (Labeled.root_post l);
  Alcotest.(check int) "size formula" ((4 * 3) + (8 * Labeled.node_count l))
    (Labeled.size_bytes l ~record_count:3)

let test_link_lookup () =
  let l = labeled_of doc_corpus in
  (match Labeled.link l (p_of [ "P" ]) with
   | Some link ->
     Alcotest.(check int) "one shared root node" 1 (Labeled.link_length link)
   | None -> Alcotest.fail "link P missing");
  (match Labeled.link l (p_of [ "P"; "L"; "S" ]) with
   | Some link -> Alcotest.(check bool) "PLS entries" true (Labeled.link_length link >= 1)
   | None -> Alcotest.fail "link P.L.S missing");
  Alcotest.(check bool) "missing link" true
    (Labeled.link l (p_of [ "Q" ]) = None)

let test_path_multiple () =
  let l = labeled_of doc_corpus in
  Alcotest.(check bool) "P.L duplicated in doc 0" true
    (Labeled.path_multiple l (p_of [ "P"; "L" ]));
  Alcotest.(check bool) "P.D unique" false
    (Labeled.path_multiple l (p_of [ "P"; "D" ]));
  Alcotest.(check bool) "memoised second call" true
    (Labeled.path_multiple l (p_of [ "P"; "L" ]))

(* --- randomised invariants ------------------------------------------------ *)

let tags = [| "a"; "b"; "c" |]

let tree_gen : T.t Gen.t =
  let open Gen in
  let rec node depth st =
    let fanout = if depth >= 4 then 0 else int_bound (4 - depth) st in
    let kids = List.init fanout (fun _ -> node (depth + 1) st) in
    T.elt (oneofa tags st) kids
  in
  node 0

let corpus_gen = Gen.(list_size (int_range 1 12) tree_gen)

let corpus_print docs =
  String.concat ";" (List.map (Format.asprintf "%a" T.pp) docs)

let arb_corpus = QCheck.make ~print:corpus_print corpus_gen

let with_labeled docs f =
  let docs = Array.of_list docs in
  f docs (labeled_of docs)

(* every link: ascending pres, post >= pre, up pointers point at the
   nearest same-path ancestor (verified against a quadratic recomputation) *)
let prop_link_invariants =
  QCheck.Test.make ~name:"link invariants" ~count:150 arb_corpus (fun docs ->
      with_labeled docs (fun docs l ->
          ignore docs;
          (* Collect all links through every path of every doc. *)
          let seen = Hashtbl.create 64 in
          Array.iter
            (fun d ->
              Array.iter
                (fun p -> Hashtbl.replace seen p ())
                (Enc.paths_of_tree sy d))
            docs;
          Hashtbl.fold
            (fun p () ok ->
              ok
              &&
              match Labeled.link l p with
              | None -> false
              | Some link ->
                let n = Labeled.link_length link in
                let ok = ref true in
                for i = 0 to n - 1 do
                  let pre = Labeled.link_pre link i in
                  let post = Labeled.link_post link i in
                  if post < pre then ok := false;
                  if i > 0 && Labeled.link_pre link (i - 1) >= pre then ok := false;
                  (* up = nearest j < i whose range contains pre *)
                  let expected_up = ref (-1) in
                  for j = 0 to i - 1 do
                    if
                      Labeled.link_pre link j < pre
                      && Labeled.link_post link j >= pre
                    then expected_up := j
                  done;
                  if Labeled.link_up link i <> !expected_up then ok := false;
                  (* same_desc matches brute force *)
                  let has_desc = ref false in
                  for j = i + 1 to n - 1 do
                    if Labeled.link_pre link j <= post then has_desc := true
                  done;
                  if Labeled.link_same_desc link i <> !has_desc then ok := false
                done;
                !ok)
            seen true))

let prop_nearest_in_link =
  QCheck.Test.make ~name:"nearest_in_link = deepest containing entry" ~count:150
    arb_corpus (fun docs ->
      with_labeled docs (fun _docs l ->
          let ok = ref true in
          let paths = Hashtbl.create 64 in
          Array.iter
            (fun d ->
              Array.iter (fun p -> Hashtbl.replace paths p ()) (Enc.paths_of_tree sy d))
            _docs;
          Hashtbl.iter
            (fun p () ->
              match Labeled.link l p with
              | None -> ok := false
              | Some link ->
                for x = 0 to Labeled.root_post l do
                  let got = Labeled.nearest_in_link link x in
                  let expected = ref (-1) in
                  for j = 0 to Labeled.link_length link - 1 do
                    if Labeled.link_pre link j <= x && Labeled.link_post link j >= x
                    then expected := j
                  done;
                  if got <> !expected then ok := false
                done)
            paths;
          !ok))

let prop_bulk_equals_incremental =
  QCheck.Test.make ~name:"bulk load = incremental build" ~count:150 arb_corpus
    (fun docs ->
      let docs = Array.of_list docs in
      let seqs =
        Array.mapi (fun i d -> (Enc.encode sy ~strategy:S.Depth_first d, i)) docs
      in
      let t1 = Trie.create () in
      Array.iter (fun (s, i) -> Trie.insert t1 s ~doc:i) seqs;
      let t2 = Trie.create () in
      Trie.bulk_load t2 (Array.copy seqs);
      let l1 = Labeled.of_trie sy t1 and l2 = Labeled.of_trie sy t2 in
      (* Same node count and identical link shapes per path. *)
      Labeled.node_count l1 = Labeled.node_count l2
      && Array.for_all
           (fun (s, _) ->
             Array.for_all
               (fun p ->
                 match Labeled.link l1 p, Labeled.link l2 p with
                 | Some a, Some b ->
                   Labeled.link_length a = Labeled.link_length b
                   && List.init (Labeled.link_length a) (fun i ->
                          (Labeled.link_pre a i, Labeled.link_post a i))
                      = List.init (Labeled.link_length b) (fun i ->
                            (Labeled.link_pre b i, Labeled.link_post b i))
                 | _ -> false)
               s)
           seqs)

(* Random multisets of sequences over a four-path alphabet: sequences
   share prefixes, some are duplicated, some are truncated copies (a
   prefix of another sequence), and one repeats a single path along its
   whole root-to-leaf chain, so same-path nodes nest and [up] pointers
   chain. *)
let seq_alphabet =
  [| p_of [ "a" ]; p_of [ "a"; "b" ]; p_of [ "c" ]; p_of [ "a"; "d" ] |]

let seqs_gen : Path.t array list Gen.t =
  let open Gen in
  let seq = array_size (int_range 1 6) (oneofa seq_alphabet) in
  let* base = list_size (int_range 1 8) seq in
  let* derived =
    list_size (int_range 0 6)
      (let* s = oneofl base in
       let* cut = int_range 1 (Array.length s) in
       oneofl [ s; Array.sub s 0 cut ])
  in
  let* k = int_range 1 5 in
  let* p = oneofa seq_alphabet in
  let chain = Array.make k p in
  (* [| a |] keeps the dictionary prefix-closed, as records' paths are. *)
  shuffle_l ((chain :: [| seq_alphabet.(0) |] :: base) @ derived)

let seqs_print seqs =
  String.concat " | "
    (List.map
       (fun s -> String.concat "," (Array.to_list (Array.map (Path.to_string sy) s)))
       seqs)

(* Every column of the sorted sweep equals the column [of_trie] labels
   from a bulk-loaded trie. *)
let prop_sweep_equals_trie =
  QCheck.Test.make ~name:"of_sorted = of_trie after bulk_load" ~count:300
    (QCheck.make ~print:seqs_print seqs_gen) (fun seqs ->
      let seqs = Array.of_list (List.mapi (fun i s -> (s, i)) seqs) in
      let trie = Trie.create () in
      Trie.bulk_load trie seqs;
      let want = Labeled.of_trie sy trie in
      let sorted = Array.copy seqs in
      Array.sort Trie.compare_seq sorted;
      let got = Labeled.of_sorted sy sorted in
      let check what f =
        let a = f want and b = f got in
        if a <> b then QCheck.Test.fail_reportf "%s differs" what
      in
      let nodes l = List.init (Labeled.node_count l + 1) Fun.id in
      check "pre" (fun l -> List.map (Labeled.pre_of_node l) (nodes l));
      check "post" (fun l -> List.map (Labeled.post_of_node l) (nodes l));
      check "node_path" (fun l -> List.map (Labeled.path_of_node l) (nodes l));
      let dict =
        List.sort_uniq Path.compare
          (List.map (Labeled.path_of_node want) (nodes want))
      in
      let entries l =
        List.map
          (fun p ->
            match Labeled.link l p with
            | None -> None
            | Some k ->
              Some
                (List.init (Labeled.link_length k) (fun i ->
                     ( Labeled.link_pre k i,
                       Labeled.link_post k i,
                       Labeled.link_up k i,
                       Labeled.link_node k i ))))
          dict
      in
      check "distinct paths" Labeled.distinct_paths;
      check "l_pre, l_post, l_up, l_node" entries;
      check "multi" (fun l -> List.map (Labeled.path_multiple l) dict);
      check "document table" (fun l ->
          List.init (Labeled.doc_len l) (fun i ->
              (Labeled.doc_pre_at l i, Labeled.doc_id_at l i)));
      check "snapshot bytes" Fingerprint.of_labeled;
      true)

let test_of_sorted_rejects () =
  let a = p_of [ "a" ] and b = p_of [ "a"; "b" ] in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Labeled.of_sorted: sequences are not sorted") (fun () ->
      ignore (Labeled.of_sorted sy [| ([| a; b |], 0); ([| a |], 1) |]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Labeled.of_sorted: empty sequence") (fun () ->
      ignore (Labeled.of_sorted sy [| ([||], 0) |]));
  let l = Labeled.of_sorted sy [||] in
  Alcotest.(check (pair int int)) "no sequences: the root alone" (0, 0)
    (Labeled.node_count l, Labeled.root_post l)

let prop_docs_in_range =
  QCheck.Test.make ~name:"docs_in_range over full range = all docs" ~count:150
    arb_corpus (fun docs ->
      with_labeled docs (fun docs l ->
          let acc = ref [] in
          Labeled.docs_in_range l ~lo:0 ~hi:(Labeled.root_post l) ~f:(fun d ->
              acc := d :: !acc);
          List.sort_uniq Stdlib.compare !acc
          = List.init (Array.length docs) (fun i -> i)))

let () =
  Alcotest.run "index"
    [
      ( "trie",
        [
          Alcotest.test_case "sharing" `Quick test_trie_sharing;
          Alcotest.test_case "empty rejected" `Quick test_trie_empty_rejected;
        ] );
      ( "labeled",
        [
          Alcotest.test_case "basic" `Quick test_labeled_basic;
          Alcotest.test_case "link lookup" `Quick test_link_lookup;
          Alcotest.test_case "path_multiple" `Quick test_path_multiple;
          Alcotest.test_case "of_sorted rejects bad input" `Quick
            test_of_sorted_rejects;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_link_invariants;
            prop_nearest_in_link;
            prop_bulk_equals_incremental;
            prop_sweep_equals_trie;
            prop_docs_in_range;
          ] );
    ]
