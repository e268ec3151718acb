(* Schema-driven sequencing (Section 5.2, Figures 12–13).

   The occurrence probabilities behind the gbest strategy can come from an
   explicit schema instead of data sampling: here we spell out the paper's
   Figure 12 probabilities, derive p(C|root) (Figure 13), and use them to
   sequence documents — then compare against the sampled estimate.

   Run with:  dune exec examples/schema_driven.exe *)

module Schema = Xschema.Schema
module Path = Sequencing.Symtab.Path

(* Figure 12: P(1.0){ v1(0.001), R(0.9){ U(0.8){ M(0.8){v2} }, L(0.4){v3} } } *)
let schema =
  Schema.node "P"
    ~value:{ Schema.cardinality = 1000; known = [ ("v1", 0.001) ] }
    [
      Schema.node ~exist:0.9 "R"
        [
          Schema.node ~exist:0.8 "U"
            [
              Schema.node ~exist:0.8 "M"
                ~value:{ Schema.cardinality = 1000; known = [ ("v2", 0.001) ] }
                [];
            ];
          Schema.node ~exist:0.4 "L"
            ~value:{ Schema.cardinality = 10; known = [ ("v3", 0.1) ] }
            [];
        ];
    ]

let () =
  Printf.printf "=== Figure 13: derived p(C|root) ===\n";
  let symbols = Sequencing.Symtab.create () in
  List.iter
    (fun (path, p) -> Printf.printf "  %-14s %.4f\n" (Path.to_string symbols path) p)
    (Schema.p_root schema symbols);

  (* A document conforming to the schema, sequenced by the schema-driven
     strategy: frequent elements first, rare values last (the paper's
     example sequence in Section 5.2). *)
  let doc =
    Xmlcore.Xml_tree.(
      elt "P"
        [
          text "v1";
          elt "R"
            [ elt "U" [ elt "M" [ text "v2" ] ]; elt "L" [ text "v3" ] ];
        ])
  in
  let seq =
    Sequencing.Encoder.encode ~strategy:(Schema.strategy schema symbols) symbols doc
  in
  Printf.printf "\nschema-driven sequence:\n  %s\n"
    (String.concat " " (List.map (Path.to_string symbols) (Array.to_list seq)));

  (* The same strategy plugs into index construction via Custom. *)
  let docs =
    Array.init 500 (fun k ->
        Xmlcore.Xml_tree.(
          elt "P"
            ((if k mod 1000 = 0 then [ text "v1" ] else [])
            @
            if k mod 10 < 9 then
              [
                elt "R"
                  ((if k mod 10 < 8 then
                      [ elt "U" [ elt "M" [ text (Printf.sprintf "m%d" (k mod 50)) ] ] ]
                    else [])
                  @
                  if k mod 5 < 2 then [ elt "L" [ text (Printf.sprintf "v%d" (k mod 10)) ] ]
                  else [])
              ]
            else [])))
  in
  let by_schema =
    Xseq.build
      ~config:
        { Xseq.default_config with sequencing = Xseq.Custom (Schema.strategy schema) }
      docs
  in
  let by_sampling = Xseq.build docs in
  Printf.printf
    "\nindex sizes on 500 conforming documents:\n\
    \  schema-driven strategy: %d trie nodes\n\
    \  sampling-driven gbest:  %d trie nodes\n"
    (Xseq.node_count by_schema) (Xseq.node_count by_sampling);
  let q = "/P/R[L='v0']" in
  Printf.printf "\nquery %s -> %d results under both strategies: %b\n" q
    (List.length (Xseq.query_xpath by_schema q))
    (Xseq.query_xpath by_schema q = Xseq.query_xpath by_sampling q)
