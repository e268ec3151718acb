(* Labelling, path links and the document table, against the paper's
   definitions. *)

module T = Xmlcore.Xml_tree
module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module Path = Symtab.Path
module Enc = Sequencing.Encoder
module S = Sequencing.Strategy
module Labeled = Xindex.Labeled
module Store = Xstorage.Store
module Gen = QCheck.Gen

let e = T.elt

(* The symbol table every path and index below belongs to. *)
let sy = Symtab.create ()

let p_of names = Path.of_list sy (List.map (D.tag sy) names)

let seq_of names_list = Array.of_list (List.map p_of names_list)

(* Every path of [l] with a link, by id. *)
let link_paths l =
  let symbols = Labeled.symbols l in
  List.filter
    (fun p -> Labeled.link l p <> None)
    (List.init (Symtab.path_count symbols) (Path.of_int symbols))

(* --- labelling ----------------------------------------------------------- *)

let test_prefix_sharing () =
  let abc = seq_of [ [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "c" ] ]
  and abd = seq_of [ [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "d" ] ] in
  let l = Labeled.build sy [| abc; abd |] in
  (* shared prefix a, a.b; two leaves *)
  Alcotest.(check int) "nodes" 4 (Labeled.node_count l);
  Alcotest.(check int) "docs" 2 (Labeled.doc_count l);
  let l = Labeled.build sy [| abc; abd; seq_of [ [ "a" ]; [ "a"; "b" ] ] |] in
  Alcotest.(check int) "prefix reuses nodes" 4 (Labeled.node_count l)

(* A document with no path has no node in the sequence trie. *)
let test_trie_empty_rejected () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Labeled.build: empty sequence") (fun () ->
      ignore (Labeled.build sy [| [||] |]))

(* Labels are 32-bit: an index holds at most [2^31 - 1] nodes, and a
   node count past that is refused rather than widened.  A trie that
   large cannot be built here, so the count is given to the load, whose
   [meta] region states it: the regions of an empty index with its node
   count replaced. *)
let max_nodes = Xutil.I32.max_value

let with_node_count n =
  let built = Store.memory () in
  Labeled.add_to_store (Labeled.build sy [||]) built;
  let store = Store.memory () in
  List.iter
    (fun r ->
      match (r.Store.r_name, r.Store.r_kind) with
      | "meta", _ -> Store.add_int_array store "meta" [| n |]
      | name, `Ints -> Store.add_ints store name (Store.ints built name)
      | name, `Blob -> Store.add_blob store name (Store.blob built name))
    (Store.regions built);
  Labeled.of_store store

let test_node_count_limit () =
  Alcotest.(check int) "max_nodes" 0x7fff_ffff max_nodes;
  Alcotest.(check int) "no nodes" 0 (Labeled.node_count (with_node_count 0));
  (* The count is within bounds; the empty index's link columns then
     disagree with it. *)
  (match with_node_count max_nodes with
   | _ -> Alcotest.fail "an index of 2^31 - 1 nodes and no links loaded"
   | exception Invalid_argument msg ->
     Alcotest.(check string) "the count passes"
       "Labeled.of_store: inconsistent snapshot: link column sizes" msg);
  List.iter
    (fun (n, why) ->
      match with_node_count n with
      | _ -> Alcotest.failf "%d nodes accepted" n
      | exception Invalid_argument msg ->
        Alcotest.(check string) "names the count"
          ("Labeled.of_store: inconsistent snapshot: " ^ why) msg)
    [
      (max_nodes + 1, "node count beyond 32 bits");
      (1 lsl 40, "node count beyond 32 bits");
      (-1, "negative node count");
    ]

(* Bad input to the labeller: an empty sequence among others is refused,
   and so is a sequence holding the empty path or a path of a larger
   table; no sequences at all give the root alone, and sequences out of
   order are sorted rather than refused. *)
let test_build_rejects_bad_input () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Labeled.build: empty sequence") (fun () ->
      ignore (Labeled.build sy [| [| p_of [ "a" ] |]; [||] |]));
  Alcotest.check_raises "epsilon"
    (Invalid_argument "Labeled.build: the empty path in a sequence")
    (fun () ->
      let a = p_of [ "a" ] and ab = p_of [ "a"; "b" ] in
      ignore (Labeled.build sy [| [| a; Path.epsilon |]; [| a; ab |] |]));
  let small = Symtab.create () in
  let mine = Path.of_list small [ D.tag small "a" ] in
  let foreign = p_of [ "a"; "b"; "c"; "d" ] in
  Alcotest.(check bool) "the foreign path is past the small table" true
    (Path.to_int foreign >= Symtab.path_count small);
  Alcotest.check_raises "a path the table lacks"
    (Invalid_argument "Labeled.build: a path the table does not have")
    (fun () ->
      ignore (Labeled.build small [| [| mine |]; [| mine; foreign |] |]));
  let l = Labeled.build sy [||] in
  Alcotest.(check (pair int int)) "no sequences: the root alone" (0, 0)
    (Labeled.node_count l, Labeled.root_post l);
  let a = p_of [ "a" ] and b = p_of [ "a"; "b" ] in
  let sorted = Labeled.build sy [| [| a |]; [| a; b |] |]
  and unsorted = Labeled.build sy [| [| a; b |]; [| a |] |] in
  Alcotest.(check (pair int int)) "unsorted input: same trie"
    (Labeled.node_count sorted, Labeled.root_post sorted)
    (Labeled.node_count unsorted, Labeled.root_post unsorted)

let doc_corpus =
  [|
    e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ];
    e "P" [ e "L" [ e "S" []; e "B" [] ] ];
    e "P" [ e "D" [ e "L" [] ] ];
  |]

let labeled_of docs =
  Labeled.build sy (Array.map (Enc.encode sy ~strategy:S.Depth_first) docs)

let test_labeled_basic () =
  let l = labeled_of doc_corpus in
  Alcotest.(check int) "doc count" 3 (Labeled.doc_count l);
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

(* A path's id names its link, so a table path no node carries has an
   empty link, which [link] answers [None] for.  Paths interned among
   the data's (before the encoding), after them and after the build
   (beyond the directory) all answer so, and the first two keep that
   answer, like every path id, through a store round trip; the
   structure checks out either way. *)
let test_paths_without_nodes () =
  let tbl = Symtab.create () in
  let tag = D.tag tbl in
  let docs =
    [|
      e "a" [ e "b" []; e "c" [ e "b" [] ] ];
      e "a" [ e "c" [ e "c" [] ] ];
    |]
  in
  let among = Path.of_list tbl [ tag "a"; tag "z" ] in
  let seqs = Array.map (Enc.encode tbl ~strategy:S.Depth_first) docs in
  let spare = [ among; Path.of_list tbl [ tag "z" ] ] in
  let built = Labeled.build tbl seqs in
  let late = Path.of_list tbl [ tag "a"; tag "y" ] in
  let store = Store.memory () in
  Labeled.add_to_store built store;
  let loaded = Labeled.of_store store in
  let entries l p =
    Option.map
      (fun k ->
        List.init (Labeled.link_length k) (fun i ->
            (Labeled.link_pre k i, Labeled.link_span k i, Labeled.link_up k i)))
      (Labeled.link l p)
  in
  List.iter
    (fun (how, l) ->
      Alcotest.(check bool)
        (how ^ ": structure") true
        (Labeled.check l = Ok ());
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s has no link" how (Path.to_string tbl p))
            true
            (Labeled.link l (Path.of_int (Labeled.symbols l) (Path.to_int p))
             = None))
        spare;
      Alcotest.(check int) (how ^ ": distinct paths") 5
        (Labeled.distinct_paths l))
    [ ("built", built); ("loaded", loaded) ];
  Alcotest.(check bool) "a path interned after the build" true
    (Labeled.link built late = None);
  let width = Symtab.path_count (Labeled.symbols loaded) in
  Alcotest.(check int) "every path before the build is stored"
    (Path.to_int late) width;
  for id = 0 to width - 1 do
    let p = Path.of_int tbl id
    and q = Path.of_int (Labeled.symbols loaded) id in
    Alcotest.(check (list string))
      (Printf.sprintf "path %d" id)
      (List.map (D.name tbl) (Path.to_list tbl p))
      (List.map (D.name (Labeled.symbols loaded))
         (Path.to_list (Labeled.symbols loaded) q));
    if entries built p <> entries loaded q then
      Alcotest.failf "path %d's link differs after the round trip" id;
    Alcotest.(check bool)
      (Printf.sprintf "path %d nests alike" id)
      (Labeled.path_multiple built p)
      (Labeled.path_multiple loaded q)
  done

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
                  let post =
                    Labeled.link_pre link i + Labeled.link_span link i
                  in
                  if post < pre then ok := false;
                  if i > 0 && Labeled.link_pre link (i - 1) >= pre then ok := false;
                  (* up = nearest j < i whose range contains pre *)
                  let expected_up = ref (-1) in
                  for j = 0 to i - 1 do
                    if
                      Labeled.link_pre link j < pre
                      && Labeled.link_pre link j + Labeled.link_span link j
                         >= pre
                    then expected_up := j
                  done;
                  if Labeled.link_up link i <> !expected_up then ok := false;
                  (* same_desc matches brute force *)
                  let has_desc = ref false in
                  for j = i + 1 to n - 1 do
                    if Labeled.link_pre link j <= post then has_desc := true
                  done;
                  if Labeled.link_same_desc link i ~post <> !has_desc then
                    ok := false
                done;
                !ok)
            seen true))

(* The position of the deepest entry of [link] whose range holds serial
   [x] (the forward prefix of that node at the link's level), or -1: the
   floor entry by [pre], then [up] pointers until a range holds [x]. *)
let nearest_in_link link x =
  let rec climb i =
    if i < 0 then -1
    else if Labeled.link_pre link i + Labeled.link_span link i >= x then i
    else climb (Labeled.link_up link i)
  in
  let len = Labeled.link_length link in
  climb
    (Xutil.Binsearch.upper_bound
       (Array.init len (Labeled.link_pre link))
       ~len x
    - 1)

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
                  let got = nearest_in_link link x in
                  let expected = ref (-1) in
                  for j = 0 to Labeled.link_length link - 1 do
                    if
                      Labeled.link_pre link j <= x
                      && Labeled.link_pre link j + Labeled.link_span link j >= x
                    then expected := j
                  done;
                  if got <> !expected then ok := false
                done)
            paths;
          !ok))

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

(* The paper's labelling, straight from its definition (Section 4.1):
   the trie's nodes are the distinct non-empty prefixes of the
   sequences, and a depth-first walk from the root, children in
   ascending path id, numbers every node ([pre]) and records the largest
   number in its subtree ([post]).  A path's link lists its nodes in
   [pre] order; a node's [up] is the link position of its nearest proper
   ancestor with the same path.  Returns the nodes by serial as (post,
   path, up) and the (end serial, document id) of every sequence. *)
let reference_labels seqs =
  (* Prefixes are reversed path lists; [children] maps one to the
     distinct paths that extend it. *)
  let children = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      ignore
        (Array.fold_left
           (fun prefix p ->
             let kids =
               Option.value (Hashtbl.find_opt children prefix) ~default:[]
             in
             if not (List.mem p kids) then
               Hashtbl.replace children prefix (p :: kids);
             p :: prefix)
           [] s))
    seqs;
  let serial = Hashtbl.create 64 and positions = Hashtbl.create 16 in
  let nodes = ref [] and next = ref 1 in
  (* [open_]: per path on the chain from the root, the link position of
     its deepest node. *)
  let rec visit prefix open_ =
    let kids = Option.value (Hashtbl.find_opt children prefix) ~default:[] in
    List.iter
      (fun p ->
        let pre = !next and child = p :: prefix in
        incr next;
        Hashtbl.replace serial child pre;
        let pos = Option.value (Hashtbl.find_opt positions p) ~default:0 in
        Hashtbl.replace positions p (pos + 1);
        let up = Option.value (List.assoc_opt p open_) ~default:(-1) in
        visit child ((p, pos) :: open_);
        nodes := (pre, (!next - 1, p, up)) :: !nodes)
      (List.sort Path.compare kids)
  in
  visit [] [];
  let nodes = Array.of_list (List.map snd (List.sort compare !nodes)) in
  let ends =
    Array.mapi
      (fun i s ->
        (Hashtbl.find serial (Array.fold_left (fun acc p -> p :: acc) [] s), i))
      seqs
  in
  (nodes, List.sort compare (Array.to_list ends))

(* Every column [Labeled.build] sweeps out equals the reference
   labelling.  A node's id is its serial and each node but the root is
   one link entry, so the nodes are read off the links: the (pre, post,
   path) of every entry of every link are exactly the reference's nodes
   1..n. *)
let prop_build_equals_reference =
  QCheck.Test.make ~name:"build = reference labelling" ~count:300
    (QCheck.make ~print:seqs_print seqs_gen) (fun seqs ->
      let seqs = Array.of_list seqs in
      let l = Labeled.build sy seqs in
      let nodes, ends = reference_labels seqs in
      let n = Array.length nodes in
      let check what want got =
        if want <> got then QCheck.Test.fail_reportf "%s differs" what
      in
      check "node count" n (Labeled.node_count l);
      check "root post" n (Labeled.root_post l);
      let paths =
        List.sort_uniq Path.compare
          (Array.to_list (Array.map (fun (_, p, _) -> p) nodes))
      in
      check "distinct paths" (List.length paths) (Labeled.distinct_paths l);
      List.iter
        (fun p ->
          (* (pre, post, up) of the path's nodes, in pre order. *)
          let want =
            List.filter_map
              (fun v ->
                let post, q, up = nodes.(v - 1) in
                if Path.equal p q then Some (v, post, up) else None)
              (List.init n (fun i -> i + 1))
          in
          let got =
            match Labeled.link l p with
            | None -> []
            | Some k ->
              List.init (Labeled.link_length k) (fun i ->
                  ( Labeled.link_pre k i,
                    Labeled.link_pre k i + Labeled.link_span k i,
                    Labeled.link_up k i ))
          in
          check "link entries" want got;
          let nested =
            List.exists
              (fun (pre, post, _) ->
                List.exists (fun (x, _, _) -> pre < x && x <= post) want)
              want
          in
          check "multiple" nested (Labeled.path_multiple l p))
        paths;
      (* The links, read as nodes, are the reference's nodes 1..n. *)
      let link_nodes =
        link_paths l
        |> List.concat_map (fun p ->
               let k = Option.get (Labeled.link l p) in
               List.init (Labeled.link_length k) (fun i ->
                   ( Labeled.link_pre k i,
                     (Labeled.link_pre k i + Labeled.link_span k i, p) )))
        |> List.sort compare
      in
      check "nodes"
        (List.init n (fun i ->
             let post, path, _ = nodes.(i) in
             (i + 1, (post, path))))
        link_nodes;
      check "document table" ends
        (List.sort compare
           (List.init (Labeled.doc_len l) (fun i ->
                (Labeled.doc_pre_at l i, Labeled.doc_id_at l i))));
      true)

(* The ids of the documents whose sequences end at a serial in
   [[lo, hi]]: the span of the sorted document table, then its ids. *)
let docs_in_range l ~lo ~hi ~f =
  let len = Labeled.doc_len l in
  let pres = Array.init len (Labeled.doc_pre_at l) in
  Labeled.docs_between l
    ~first:(Xutil.Binsearch.lower_bound pres ~len lo)
    ~last:(Xutil.Binsearch.upper_bound pres ~len hi - 1)
    ~f

let prop_docs_in_range =
  QCheck.Test.make ~name:"docs_in_range over full range = all docs" ~count:150
    arb_corpus (fun docs ->
      with_labeled docs (fun docs l ->
          let acc = ref [] in
          docs_in_range l ~lo:0 ~hi:(Labeled.root_post l) ~f:(fun d ->
              acc := d :: !acc);
          List.sort_uniq Stdlib.compare !acc
          = List.init (Array.length docs) (fun i -> i)))

(* --- a loaded symbol table ----------------------------------------------- *)

(* Names for a table's designators: the empty name, prefixes of one
   another, stems sharing more than the prefix directory's seven bytes,
   over an alphabet with the zero byte and 0xff. *)
let name_gen =
  let open Gen in
  let stems =
    [| ""; "a"; "ab"; "abcdefgh"; "abcdefghij"; "abcdefghijklmnopq" |]
  in
  map2
    (fun stem tail -> stem ^ tail)
    (oneofa stems)
    (string_size ~gen:(oneofa [| '\000'; 'a'; 'b'; '\255' |]) (int_bound 3))

(* A set of (name, kind) designators of one of the sizes around the
   reader's bucket of 16, with a tag and a value of one name among
   them when there are two or more. *)
let desig_set_gen =
  let open Gen in
  oneofa [| 0; 1; 2; 15; 16; 17; 33 |] >>= fun n ->
  let rec fill acc st =
    if List.length acc >= n then acc
    else
      let d = (name_gen st, bool st) in
      fill (if List.mem d acc then acc else d :: acc) st
  in
  fun st ->
    let twins = if n >= 2 then [ ("twin", false); ("twin", true) ] else [] in
    let rec more acc =
      if List.length acc >= n then acc
      else
        let acc' = fill acc st in
        if List.length acc' > List.length acc then more acc' else acc'
    in
    let ds = more twins in
    (* Interned in a shuffled order: a built table's ids are first-seen. *)
    shuffle_l ds st

let arb_desig_set =
  QCheck.make
    ~print:(fun ds ->
      String.concat "; "
        (List.map
           (fun (n, v) -> Printf.sprintf "%s %S" (if v then "v" else "t") n)
           ds))
    desig_set_gen

let sign x = compare x 0

(* A table loaded through a snapshot's regions answers every name and
   edge question as the built table it was saved from: lookups of both
   kinds (hits and misses), names, name tests, the name order (which
   [Path.lex_compare] reads off the designators of two paths under the
   root) and child edges.  Every designator ends a path under the root,
   and every other one a path under the first tag's. *)
let prop_loaded_table =
  QCheck.Test.make ~name:"a loaded table answers as the built one" ~count:300
    arb_desig_set (fun ds ->
      let bt = Symtab.create () in
      let desigs =
        Array.of_list
          (List.map (fun (n, v) -> if v then D.value bt n else D.tag bt n) ds)
      in
      let top = Array.map (Path.child bt Path.epsilon) desigs in
      let under =
        match
          List.find_opt (fun d -> not (D.is_value bt d)) (Array.to_list desigs)
        with
        | None -> [||]
        | Some t ->
          let pt = Path.child bt Path.epsilon t in
          Array.of_list
            (List.filteri (fun i _ -> i mod 2 = 0) (Array.to_list desigs))
          |> Array.map (fun d -> (pt, d, Path.child bt pt d))
      in
      let seqs =
        Array.append
          (Array.map (fun p -> [| p |]) top)
          (Array.map (fun (pt, _, p) -> [| pt; p |]) under)
      in
      let store = Store.memory () in
      Labeled.add_to_store (Labeled.build bt seqs) store;
      let lt = Labeled.symbols (Labeled.of_store store) in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      (* The loaded designator of a built one, found by name. *)
      let find tbl v n = (if v then D.find_value else D.find_tag) tbl n in
      let loaded d =
        match find lt (D.is_value bt d) (D.name bt d) with
        | Some d' -> d'
        | None -> fail "%S missing from the loaded table" (D.name bt d)
      in
      let probes =
        List.concat_map
          (fun (n, _) ->
            [ n; n ^ "\000"; n ^ "a"; n ^ "\255"; "zz" ^ n ]
            @ List.init (String.length n) (fun k -> String.sub n 0 k))
          (("", false) :: ds)
      in
      List.iter
        (fun n ->
          List.iter
            (fun v ->
              let spell tbl =
                Option.map (fun d -> (D.name tbl d, D.is_value tbl d))
              in
              if spell bt (find bt v n) <> spell lt (find lt v n) then
                fail "lookup of %s %S differs" (if v then "value" else "tag") n)
            [ false; true ])
        probes;
      Array.iter
        (fun d ->
          let d' = loaded d in
          if D.name lt d' <> D.name bt d then fail "name of %S" (D.name bt d);
          List.iter
            (fun n ->
              if D.name_equal lt d' n <> D.name_equal bt d n then
                fail "name_equal %S %S" (D.name bt d) n;
              if D.name_has_prefix lt d' n <> D.name_has_prefix bt d n then
                fail "name_has_prefix %S %S" (D.name bt d) n)
            probes;
          let top tbl d = Option.get (Path.find_child tbl Path.epsilon d) in
          Array.iter
            (fun e ->
              if
                sign (Path.lex_compare lt (top lt d') (top lt (loaded e)))
                <> sign (Path.lex_compare bt (top bt d) (top bt e))
              then fail "name order of %S and %S" (D.name bt d) (D.name bt e))
            desigs;
          (* Every edge the built table has, and only those. *)
          List.iter
            (fun p ->
              let lp = Path.of_int lt (Path.to_int p) in
              let want = Option.map Path.to_int (Path.find_child bt p d) in
              if Option.map Path.to_int (Path.find_child lt lp d') <> want then
                fail "find_child %s %S" (Path.to_string bt p) (D.name bt d))
            (Path.epsilon
            :: Array.to_list (Array.map (fun (pt, _, _) -> pt) under)))
        desigs;
      true)

let () =
  Alcotest.run "index"
    [
      ( "trie",
        [ Alcotest.test_case "empty rejected" `Quick test_trie_empty_rejected ]
      );
      ( "labeled",
        [
          Alcotest.test_case "prefix sharing" `Quick test_prefix_sharing;
          Alcotest.test_case "basic" `Quick test_labeled_basic;
          Alcotest.test_case "link lookup" `Quick test_link_lookup;
          Alcotest.test_case "path_multiple" `Quick test_path_multiple;
          Alcotest.test_case "of_sorted rejects bad input" `Quick
            test_build_rejects_bad_input;
          Alcotest.test_case "node count fits 32-bit labels" `Quick
            test_node_count_limit;
          Alcotest.test_case "paths without nodes" `Quick
            test_paths_without_nodes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_link_invariants;
            prop_nearest_in_link;
            prop_build_equals_reference;
            prop_docs_in_range;
            prop_loaded_table;
          ] );
    ]
