(* The paper's running example (Figure 1): a project hierarchy, its
   constraint-sequence representations under different strategies, and the
   false-alarm / false-dismissal phenomena of Section 3.

   Run with:  dune exec examples/project_catalog.exe *)

module T = Xmlcore.Xml_tree
module Enc = Sequencing.Encoder
module S = Sequencing.Strategy
module Path = Sequencing.Symtab.Path

let e = T.elt
let v = T.text

(* Figure 1's document. *)
let project =
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

(* A couple of sibling projects so queries are selective. *)
let other_projects =
  [
    e "P"
      [
        v "xml";
        e "R" [ e "M" [ v "alice" ]; e "L" [ v "boston" ] ];
        e "D" [ e "M" [ v "smith" ]; e "U" [ e "N" [ v "kernel" ] ] ];
      ];
    e "P" [ v "xml"; e "D" [ e "L" [ v "newyork" ]; e "M" [ v "johnson" ] ] ];
  ]

(* Every sequence below is made of the paths of one symbol table. *)
let symbols = Sequencing.Symtab.create ()

let print_seq title seq =
  Printf.printf "%-14s %s\n" title
    (String.concat " " (List.map (Path.to_string symbols) (Array.to_list seq)))

let () =
  Printf.printf "=== sequencing Figure 1 under different strategies ===\n";
  let encode strategy = Enc.encode ~strategy symbols project in
  print_seq "depth-first" (encode S.Depth_first);
  print_seq "breadth-first" (encode S.Breadth_first);
  print_seq "random(7)" (encode (S.Random 7));

  (* The probability strategy orders by sampled occurrence probability. *)
  let docs = Array.of_list (project :: other_projects) in
  let stats = Xschema.Stats.of_documents_array ~symbols docs in
  print_seq "gbest" (encode (Xschema.Stats.strategy stats));

  (* Every one of them reconstructs the same tree (Theorem 1). *)
  let ok =
    List.for_all
      (fun strategy ->
        T.isomorphic project (Sequencing.Decoder.decode symbols (encode strategy)))
      [ S.Depth_first; S.Breadth_first; S.Random 7; Xschema.Stats.strategy stats ]
  in
  Printf.printf "all sequences decode back to the same tree: %b\n\n" ok;

  Printf.printf "=== querying (Section 3.1) ===\n";
  let index = Xseq.build docs in
  let show q =
    Printf.printf "%-52s -> [%s]\n" q
      (String.concat "; " (List.map string_of_int (Xseq.query_xpath index q)))
  in
  (* The paper's branching query with two value predicates. *)
  show "/P[R/L='newyork']/D[L='boston']";
  show "/P/R[M='tom']";
  show "//U[N='engine']";
  show "/P/*/M";
  show "/P//N[text='GUI']";

  Printf.printf "\n=== false alarms (Figure 4) ===\n";
  (* D has two L-children in different sub-trees; asking for one L with
     both children must not match. *)
  let d = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let idx2 = Xseq.build [| d |] in
  let q = Xseq.Pattern.(elt "P" [ elt "L" [ elt "S" []; elt "B" [] ] ]) in
  let compiled =
    Xquery.Engine.compile ~strategy:(Xseq.strategy idx2)
      ~value_mode:(Xseq.value_mode idx2) (Xseq.labeled idx2) q
  in
  let naive =
    Xquery.Matcher.run_collect ~mode:Xquery.Matcher.Naive (Xseq.labeled idx2) compiled
  in
  let constr = Xseq.query idx2 q in
  Printf.printf "naive subsequence matching:      [%s]  <- false alarm!\n"
    (String.concat ";" (List.map string_of_int naive));
  Printf.printf "constraint subsequence matching: [%s]\n"
    (String.concat ";" (List.map string_of_int constr));

  Printf.printf "\n=== false dismissals (Figure 5) ===\n";
  (* Isomorphic re-orderings are still found, thanks to isomorphism
     expansion of the query. *)
  let d1 = e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ] in
  let d2 = e "P" [ e "L" [ e "B" [] ]; e "L" [ e "S" [] ] ] in
  let idx3 = Xseq.build [| d1; d2 |] in
  let q2 = Xseq.Pattern.(elt "P" [ elt "L" [ elt "S" [] ]; elt "L" [ elt "B" [] ] ]) in
  Printf.printf "both sibling orders found: [%s]\n"
    (String.concat ";" (List.map string_of_int (Xseq.query idx3 q2)))
