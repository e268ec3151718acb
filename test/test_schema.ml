(* Schema probability trees (Figures 12–13, Eq. 6) and sampled statistics. *)

module T = Xmlcore.Xml_tree
module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module Path = Symtab.Path
module Schema = Xschema.Schema
module Stats = Xschema.Stats
module Gen = QCheck.Gen

let e = T.elt
let v = T.text

(* The symbol table every path below belongs to. *)
let sy = Symtab.create ()

(* Figure 12's tree: P(1.0) with children v1(0.001), R(0.9);
   R has children U(0.8), L(0.4); U has M(0.8) with value v2(0.001/0.8);
   L has value v3(0.1-ish).  We check the Figure 13 products. *)
let fig12 =
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

let path_of names = Path.of_list sy (List.map (D.tag sy) names)

let test_fig13_products () =
  let probs = Schema.p_root fig12 sy in
  let lookup names =
    let p = path_of names in
    List.assoc p probs
  in
  let close a b = abs_float (a -. b) < 1e-9 in
  Alcotest.(check bool) "p(P|root)=1" true (close (lookup [ "P" ]) 1.0);
  Alcotest.(check bool) "p(R|root)=0.9" true (close (lookup [ "P"; "R" ]) 0.9);
  (* The paper: p(L|root) = p(L|R) × p(R|root) = 0.4 × 0.9 = 0.36 *)
  Alcotest.(check bool) "p(L|root)=0.36" true (close (lookup [ "P"; "R"; "L" ]) 0.36);
  Alcotest.(check bool) "p(U|root)=0.72" true (close (lookup [ "P"; "R"; "U" ]) 0.72);
  Alcotest.(check bool) "p(M|root)=0.576" true
    (close (lookup [ "P"; "R"; "U"; "M" ]) 0.576);
  (* known value: p(v3|root) = 0.36 × 0.1 = 0.036 (Figure 13) *)
  let v3 = Path.child sy (path_of [ "P"; "R"; "L" ]) (D.value sy "v3") in
  Alcotest.(check bool) "p(v3|root)=0.036" true (close (List.assoc v3 probs) 0.036)

let test_priority_weights () =
  (* Eq 6: p' = p × w.  Weighting L by 3 lifts it above U. *)
  let weighted =
    Schema.node "P"
      [
        Schema.node ~exist:0.8 "U" [];
        Schema.node ~exist:0.4 ~weight:3.0 "L" [];
      ]
  in
  let prio = Schema.to_priority weighted sy in
  Alcotest.(check bool) "weighted up" true
    (prio (path_of [ "P"; "L" ]) > prio (path_of [ "P"; "U" ]))

let test_priority_fallbacks () =
  let prio = Schema.to_priority fig12 sy in
  (* Anonymous values under a slot share p(slot)/cardinality. *)
  let anon = Path.child sy (path_of [ "P"; "R"; "L" ]) (D.value sy "someval") in
  Alcotest.(check bool) "anon value positive" true (prio anon > 0.);
  Alcotest.(check bool) "anon below element" true
    (prio anon < prio (path_of [ "P"; "R"; "L" ]));
  (* Paths outside the schema decay from their longest known prefix. *)
  let unknown = path_of [ "P"; "R"; "Zzz" ] in
  Alcotest.(check bool) "unknown decays" true
    (prio unknown < prio (path_of [ "P"; "R" ]) && prio unknown > 0.)

let test_strategy_wrapper () =
  match Schema.strategy fig12 sy with
  | Sequencing.Strategy.Probability _ -> ()
  | _ -> Alcotest.fail "expected a Probability strategy"

(* --- Stats --------------------------------------------------------------- *)

let corpus =
  [
    e "P" [ e "R" [ e "L" [ v "boston" ] ] ];
    e "P" [ e "R" [] ];
    e "P" [ e "D" [] ];
    e "P" [ e "R" [ e "L" [ v "boston" ] ]; e "D" [] ];
  ]

let test_stats_frequencies () =
  let s = Stats.of_documents ~symbols:sy corpus in
  Alcotest.(check int) "doc count" 4 (Stats.doc_count s);
  let close a b = abs_float (a -. b) < 1e-9 in
  Alcotest.(check bool) "p(P)=1" true (close (Stats.p_root s (path_of [ "P" ])) 1.0);
  Alcotest.(check bool) "p(R)=0.75" true
    (close (Stats.p_root s (path_of [ "P"; "R" ])) 0.75);
  Alcotest.(check bool) "p(D)=0.5" true
    (close (Stats.p_root s (path_of [ "P"; "D" ])) 0.5);
  Alcotest.(check bool) "p(L)=0.5" true
    (close (Stats.p_root s (path_of [ "P"; "R"; "L" ])) 0.5);
  (* conditional: p(L|R) = 0.5 / 0.75 *)
  Alcotest.(check bool) "p(L|R)" true
    (close (Stats.p_parent s (path_of [ "P"; "R"; "L" ])) (0.5 /. 0.75));
  Alcotest.(check bool) "distinct paths" true (Stats.distinct_paths s >= 5)

let test_stats_weights () =
  let s = Stats.of_documents ~symbols:sy corpus in
  let l = path_of [ "P"; "R"; "L" ] in
  let before = Stats.priority s l in
  Stats.set_weight s l 10.0;
  Alcotest.(check bool) "weight multiplies" true
    (abs_float (Stats.priority s l -. (before *. 10.0)) < 1e-9);
  Stats.set_tag_weight s "D" 5.0;
  Alcotest.(check bool) "tag weight" true
    (abs_float (Stats.priority s (path_of [ "P"; "D" ]) -. 2.5) < 1e-9)

let test_stats_sample_deterministic () =
  let docs = Array.of_list corpus in
  let a = Stats.sample ~fraction:0.5 ~seed:3 docs in
  let b = Stats.sample ~fraction:0.5 ~seed:3 docs in
  Alcotest.(check int) "same sample size" (Stats.doc_count a) (Stats.doc_count b);
  Alcotest.(check bool) "nonempty" true (Stats.doc_count a >= 1)

(* Property: parent estimate never smaller than child estimate — the
   invariant the ancestor-first sequencing procedure relies on. *)
let tags = [| "a"; "b"; "c" |]

let tree_gen : T.t Gen.t =
  let open Gen in
  let rec node depth st =
    let fanout = if depth >= 3 then 0 else int_bound (3 - depth) st in
    let kids = List.init fanout (fun _ -> node (depth + 1) st) in
    T.elt (oneofa tags st) kids
  in
  node 0

let prop_parent_monotone =
  QCheck.Test.make ~name:"p(parent) >= p(child)" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map (Format.asprintf "%a" T.pp) l))
       Gen.(list_size (int_range 1 10) tree_gen))
    (fun docs ->
      let s = Stats.of_documents ~symbols:sy docs in
      List.for_all
        (fun d ->
          Array.for_all
            (fun p ->
              Path.depth sy p < 2
              || Stats.p_root s (Path.parent sy p) >= Stats.p_root s p -. 1e-12)
            (Sequencing.Encoder.paths_of_tree sy d))
        docs)

let () =
  Alcotest.run "schema"
    [
      ( "schema",
        [
          Alcotest.test_case "figure 13 products" `Quick test_fig13_products;
          Alcotest.test_case "eq 6 weights" `Quick test_priority_weights;
          Alcotest.test_case "priority fallbacks" `Quick test_priority_fallbacks;
          Alcotest.test_case "strategy wrapper" `Quick test_strategy_wrapper;
        ] );
      ( "stats",
        [
          Alcotest.test_case "frequencies" `Quick test_stats_frequencies;
          Alcotest.test_case "weights" `Quick test_stats_weights;
          Alcotest.test_case "sampling deterministic" `Quick
            test_stats_sample_deterministic;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_parent_monotone ] );
    ]
