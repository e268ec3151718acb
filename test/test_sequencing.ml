(* Paths, constraints, strategies, encoder/decoder. *)

module T = Xmlcore.Xml_tree
module Symtab = Sequencing.Symtab
module I32 = Xutil.I32
module D = Symtab.Designator
module Path = Symtab.Path
module C = Sequencing.Seq_constraint
module Enc = Sequencing.Encoder
module Dec = Sequencing.Decoder
module S = Sequencing.Strategy
module Gen = QCheck.Gen

let e = T.elt
let v = T.text

(* The symbol table every path and sequence below belongs to. *)
let sy = Symtab.create ()

let p_of names = Path.of_list sy (List.map (D.tag sy) names)

(* --- designators ---------------------------------------------------------- *)

let test_designator_identity () =
  Alcotest.(check bool) "same tag same id" true
    (D.equal (D.tag sy "project") (D.tag sy "project"));
  Alcotest.(check bool) "tag <> value" false
    (D.equal (D.tag sy "boston") (D.value sy "boston"));
  Alcotest.(check bool) "value is value" true (D.is_value sy (D.value sy "x"));
  Alcotest.(check bool) "tag is not value" false (D.is_value sy (D.tag sy "x"));
  Alcotest.(check string) "name round trip" "boston"
    (D.name sy (D.value sy "boston"));
  Alcotest.(check bool) "char value" true (D.is_value sy (D.char_value sy 'q'));
  Alcotest.(check string) "char name" "q" (D.name sy (D.char_value sy 'q'));
  Alcotest.(check bool) "find_tag never interns" true
    (D.find_tag sy "never-seen" = None && D.find_tag sy "never-seen" = None)

(* Tables are independent: ids start afresh in each, in first-seen
   order, and a name one table lacks is absent there. *)
let test_tables_independent () =
  let a = Symtab.create () and b = Symtab.create () in
  let pa = Path.of_list a [ D.tag a "r"; D.tag a "zeta" ] in
  let pb = Path.of_list b [ D.tag b "r"; D.tag b "alpha" ] in
  Alcotest.(check int) "same first ids" (Path.to_int pa) (Path.to_int pb);
  Alcotest.(check int) "epsilon and two paths" 3 (Symtab.path_count a);
  Alcotest.(check bool) "alpha absent from a" true (D.find_tag a "alpha" = None);
  Alcotest.(check string) "names" "r.zeta" (Path.to_string a pa)

(* --- paths --------------------------------------------------------------- *)

let test_path_intern () =
  let a = p_of [ "P"; "D"; "L" ] in
  let b = p_of [ "P"; "D"; "L" ] in
  Alcotest.(check bool) "hash-consed" true (Path.equal a b);
  Alcotest.(check int) "depth" 3 (Path.depth sy a);
  Alcotest.(check string) "tag" "L" (D.name sy (Path.tag sy a));
  Alcotest.(check bool) "parent" true (Path.equal (Path.parent sy a) (p_of [ "P"; "D" ]));
  Alcotest.(check int) "epsilon depth" 0 (Path.depth sy Path.epsilon)

let test_path_prefix () =
  let pd = p_of [ "P"; "D" ] and pdl = p_of [ "P"; "D"; "L" ] in
  let pr = p_of [ "P"; "R" ] in
  Alcotest.(check bool) "prefix" true (Path.is_prefix sy pd pdl);
  Alcotest.(check bool) "strict" true (Path.is_strict_prefix sy pd pdl);
  Alcotest.(check bool) "not self-strict" false (Path.is_strict_prefix sy pd pd);
  Alcotest.(check bool) "self prefix" true (Path.is_prefix sy pd pd);
  Alcotest.(check bool) "not prefix" false (Path.is_prefix sy pr pdl);
  Alcotest.(check bool) "ancestor at depth" true
    (Path.equal (Path.ancestor_at_depth sy pdl 1) (p_of [ "P" ]));
  Alcotest.(check bool) "epsilon prefix of all" true (Path.is_prefix sy Path.epsilon pdl)

let test_path_roundtrip () =
  let ds = [ D.tag sy "P"; D.tag sy "D"; D.value sy "boston" ] in
  Alcotest.(check bool) "of_list/to_list" true
    (List.equal D.equal ds (Path.to_list sy (Path.of_list sy ds)))

let test_lex_compare () =
  let cmp a b = Path.lex_compare sy (p_of a) (p_of b) in
  Alcotest.(check bool) "prefix first" true (cmp [ "P" ] [ "P"; "D" ] < 0);
  Alcotest.(check bool) "equal" true (cmp [ "P"; "D" ] [ "P"; "D" ] = 0);
  (* The first differing designator decides, by name: interning "lex_b"
     before "lex_a" changes nothing. *)
  let b = Path.child sy (p_of [ "P" ]) (D.tag sy "lex_b") in
  let a = Path.child sy (p_of [ "P" ]) (D.tag sy "lex_a") in
  Alcotest.(check bool) "by name, not id" true (Path.lex_compare sy a b < 0);
  Alcotest.(check bool) "deep vs shallow divergence" true
    (Path.lex_compare sy (Path.child sy a (D.tag sy "x")) b < 0);
  Alcotest.(check bool) "values before tags" true
    (Path.lex_compare sy (Path.child sy (p_of [ "P" ]) (D.value sy "zz")) a < 0)

let test_element_children () =
  let parent = p_of [ "EC" ] in
  let c1 = Path.child sy parent (D.tag sy "ec_a") in
  let _v = Path.child sy parent (D.value sy "ec_val") in
  let kids = Path.element_children sy parent in
  Alcotest.(check bool) "element child listed" true
    (List.exists (Path.equal c1) kids);
  Alcotest.(check bool) "value child excluded" true
    (List.for_all (fun k -> not (D.is_value sy (Path.tag sy k))) kids);
  Alcotest.(check bool) "find_child" true
    (match Path.find_child sy parent (D.tag sy "ec_a") with
     | Some p -> Path.equal p c1
     | None -> false);
  Alcotest.(check bool) "find_child misses" true
    (Path.find_child sy parent (D.tag sy "ec_nonexistent") = None)

(* --- symbol table against a model ----------------------------------------- *)

(* Names for the model: short ones over a small alphabet (so tags and
   values collide), the empty string, and long ones. *)
let model_name rng =
  let len =
    match Random.State.int rng 20 with
    | 0 -> 0
    | 1 -> 200 + Random.State.int rng 800
    | _ -> 1 + Random.State.int rng 6
  in
  String.init len (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 4))

(* A designator name table as [Symtab.of_dictionary] takes it: the
   names front-coded in the order given, sorted or not, each against
   the one before. *)
let front_code names =
  let b = Buffer.create 64 in
  Buffer.add_int32_le b (Int32.of_int (Array.length names));
  Array.iteri
    (fun j s ->
      let prev = if j = 0 then "" else names.(j - 1) in
      let n = min (String.length prev) (String.length s) and k = ref 0 in
      while !k < n && prev.[!k] = s.[!k] do
        incr k
      done;
      Xsuccinct.Varint.add_uvarint b !k;
      Xsuccinct.Varint.add_uvarint b (String.length s - !k);
      Buffer.add_substring b s !k (String.length s - !k))
    names;
  Buffer.contents b

let of_dictionary ~kinds ~names ~parents ~desigs =
  Symtab.of_dictionary
    ~scratch:(I32.make (Array.length parents) 0)
    ~kinds:(Bytes.init (Array.length kinds) (fun j -> Char.chr kinds.(j)))
    ~names:(front_code names) ~parents:(I32.of_array parents)
    ~desigs:(I32.of_array desigs)

(* Paths spelled out by name, values before tags at each step, as the
   model orders them. *)
let model_spelling tbl p =
  List.map
    (fun d -> (if D.is_value tbl d then 0 else 1), D.name tbl d)
    (Path.to_list tbl p)

(* What a table is checked against: the model's designators by
   (is_value, name) and its edges by (parent, designator), both as ids of
   the table [built] that interned them. *)
type model = {
  desigs : (bool * string, int) Hashtbl.t;
  edges : (int * int, int * D.t) Hashtbl.t;
  npaths : int;
  built : Symtab.t;
}

(* Every binding, edge and absent name of the model, looked up in [tbl],
   whose path [path_of p] is the model's path [p]; and no lookup but the
   [Some] of a hit allocates. *)
let check_table what m tbl ~path_of rng =
  let check_int msg = Alcotest.(check int) (what ^ ": " ^ msg) in
  let find is_value name =
    if is_value then D.find_value tbl name else D.find_tag tbl name
  in
  (* The table's designator for a designator of the model. *)
  let desig (d : D.t) =
    match find (D.is_value m.built d) (D.name m.built d) with
    | Some d -> d
    | None -> Alcotest.failf "%s: designator %s missing" what (D.name m.built d)
  in
  Hashtbl.iter
    (fun (is_value, name) _ ->
      let d =
        match find is_value name with
        | Some d -> d
        | None -> Alcotest.failf "%s: %S missing" what name
      in
      Alcotest.(check bool) (what ^ ": namespaces are disjoint")
        (Hashtbl.mem m.desigs (not is_value, name))
        (Option.is_some (find (not is_value) name));
      let again = if is_value then D.value tbl name else D.tag tbl name in
      check_int "designator again" (d :> int) (again :> int);
      Alcotest.(check bool) (what ^ ": kind") is_value (D.is_value tbl d);
      Alcotest.(check string) (what ^ ": name") name (D.name tbl d))
    m.desigs;
  Hashtbl.iter
    (fun (parent, _) (want, d) ->
      let pp = Path.of_int tbl (path_of parent) and d = desig d in
      let p = Path.of_int tbl (path_of want) in
      check_int "parent" (path_of parent) (Path.to_int (Path.parent tbl p));
      check_int "tag" (d :> int) (Path.tag tbl p :> int);
      check_int "depth" (Path.depth tbl pp + 1) (Path.depth tbl p);
      Alcotest.(check (option int)) (what ^ ": find child")
        (Some (path_of want))
        (Option.map Path.to_int (Path.find_child tbl pp d));
      check_int "child again" (path_of want) (Path.to_int (Path.child tbl pp d)))
    m.edges;
  (* Lookups of absent names and edges miss, and never intern. *)
  let all = Array.of_seq (Hashtbl.to_seq_keys m.desigs) in
  for _ = 1 to 2_000 do
    let name = model_name rng ^ "?" in
    Alcotest.(check bool) (what ^ ": absent tag") true (D.find_tag tbl name = None);
    Alcotest.(check bool) (what ^ ": absent value") true
      (D.find_value tbl name = None);
    let parent = Random.State.int rng m.npaths in
    let is_value, name = all.(Random.State.int rng (Array.length all)) in
    let built = Hashtbl.find m.desigs (is_value, name) in
    Alcotest.(check bool) (what ^ ": find_child agrees with the model")
      (Hashtbl.mem m.edges (parent, built))
      (Path.find_child tbl
         (Path.of_int tbl (path_of parent))
         (Option.get (find is_value name))
       <> None)
  done;
  check_int "lookups never intern" m.npaths (Symtab.path_count tbl);
  (* Lookups and name tests read the name blob in place, for names of
     every length up to 1000 bytes: a miss, a name test and a prefix test
     allocate nothing, a hit its [Some] alone (two words). *)
  let n = Array.length all in
  let valued = Array.map fst all and spelled = Array.map snd all in
  let ds = Array.map (fun (is_value, name) -> Option.get (find is_value name)) all in
  let absent = Array.map (fun name -> name ^ "?") spelled in
  let halves =
    Array.map (fun name -> String.sub name 0 (String.length name / 2)) spelled
  in
  Alcotest.(check bool) (what ^ ": long names in the table") true
    (Array.exists (fun name -> String.length name >= 200) spelled);
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = minor_words ignore in
  let words f = minor_words f -. overhead in
  let find i key =
    if valued.(i) then D.find_value tbl key else D.find_tag tbl key
  in
  Alcotest.(check (float 0.)) (what ^ ": hits allocate their Some alone")
    (float_of_int (2 * n))
    (words (fun () ->
         for i = 0 to n - 1 do
           ignore (Sys.opaque_identity (find i spelled.(i)))
         done));
  Alcotest.(check (float 0.)) (what ^ ": misses allocate nothing") 0.
    (words (fun () ->
         for i = 0 to n - 1 do
           ignore (Sys.opaque_identity (find i absent.(i)));
           ignore (Sys.opaque_identity (D.find_tag tbl absent.(i)))
         done));
  let agree = ref 0 in
  Alcotest.(check (float 0.)) (what ^ ": name tests allocate nothing") 0.
    (words (fun () ->
         for i = 0 to n - 1 do
           let d = ds.(i) in
           if D.name_equal tbl d spelled.(i) then incr agree;
           if not (D.name_equal tbl d absent.(i)) then incr agree;
           if D.name_has_prefix tbl d halves.(i) then incr agree;
           if not (D.name_has_prefix tbl d absent.(i)) then incr agree
         done));
  check_int "name tests agree with the names" (4 * n) !agree;
  (* Element children: the tag extensions of each path, ascending. *)
  let kids = Array.make m.npaths [] in
  Hashtbl.iter
    (fun (parent, _) (child, d) ->
      if not (D.is_value m.built d) then
        kids.(parent) <- path_of child :: kids.(parent))
    m.edges;
  Array.iteri
    (fun p want ->
      Alcotest.(check (list int)) (what ^ ": element children")
        (List.sort compare want)
        (List.map Path.to_int
           (Path.element_children tbl (Path.of_int tbl (path_of p)))))
    kids

let test_symtab_model () =
  let rng = Random.State.make [| 42 |] in
  let tbl = Symtab.create () in
  (* The model: (is_value, name) -> designator, and (parent, designator)
     -> (path, designator); ids count up in first-seen order. *)
  let desigs = Hashtbl.create 64 and all_desigs = ref [||] in
  let edges = Hashtbl.create 64 and npaths = ref 1 in
  let intern_desig is_value name =
    let d = if is_value then D.value tbl name else D.tag tbl name in
    (match Hashtbl.find_opt desigs (is_value, name) with
     | Some want -> Alcotest.(check int) "designator is stable" want (d :> int)
     | None ->
       Alcotest.(check int) "designators in first-seen order"
         (Hashtbl.length desigs) (d :> int);
       Hashtbl.replace desigs (is_value, name) (d :> int);
       all_desigs := Array.append !all_desigs [| d |]);
    d
  in
  let add_edge parent d =
    let p = Path.to_int (Path.child tbl (Path.of_int tbl parent) d) in
    match Hashtbl.find_opt edges (parent, (d :> int)) with
    | Some (want, _) -> Alcotest.(check int) "path is stable" want p
    | None ->
      Alcotest.(check int) "paths in first-seen order" !npaths p;
      Hashtbl.replace edges (parent, (d :> int)) (p, d);
      incr npaths
  in
  (* The same string as a tag and as a value, and the empty string, each
     ending a path. *)
  List.iter
    (fun name ->
      add_edge 0 (intern_desig false name);
      add_edge 0 (intern_desig true name))
    [ ""; "x"; "both" ];
  (* Enough edges to double the path index at least three times. *)
  while !npaths < 6_000 do
    let d = intern_desig (Random.State.bool rng) (model_name rng) in
    add_edge (Random.State.int rng !npaths) d
  done;
  Alcotest.(check int) "path count" !npaths (Symtab.path_count tbl);
  (* Many small tables of names that are both a tag and a value: their
     probe chains cross often, so a probe that confused the namespaces
     would show. *)
  for _ = 1 to 500 do
    let small = Symtab.create () in
    let names = List.init 30 (fun i -> model_name rng ^ string_of_int i) in
    List.iteri
      (fun i name ->
        let first_tag = i mod 2 = 0 in
        let a = if first_tag then D.tag small name else D.value small name in
        let b = if first_tag then D.value small name else D.tag small name in
        Alcotest.(check int) "two designators per name" ((2 * i) + 1)
          (b :> int);
        Alcotest.(check bool) "kinds differ" true
          (D.is_value small a <> D.is_value small b))
      names;
    List.iteri
      (fun i name ->
        let tag, value =
          if i mod 2 = 0 then (2 * i, (2 * i) + 1) else ((2 * i) + 1, 2 * i)
        in
        Alcotest.(check (option int)) "small find_tag" (Some tag)
          (Option.map (fun (d : D.t) -> (d :> int)) (D.find_tag small name));
        Alcotest.(check (option int)) "small find_value" (Some value)
          (Option.map (fun (d : D.t) -> (d :> int)) (D.find_value small name)))
      names
  done;
  (* Dictionaries of the same paths, by depth then id: entry i is built
     path [order.(i)].  Snapshots store the build's own id order; any
     order that lists parents first loads, and this one renumbers. *)
  let order = Array.init (!npaths - 1) (fun i -> i + 1) in
  Array.stable_sort
    (fun a b ->
      compare
        (Path.depth tbl (Path.of_int tbl a))
        (Path.depth tbl (Path.of_int tbl b)))
    order;
  let order = Array.append [| 0 |] order in
  let entry = Array.make !npaths 0 in
  Array.iteri (fun i p -> entry.(p) <- i) order;
  let kinds = Array.map (fun d -> Bool.to_int (D.is_value tbl d)) !all_desigs in
  let names = Array.map (D.name tbl) !all_desigs in
  let parents =
    Array.map
      (fun p ->
        if p = 0 then -1
        else entry.(Path.to_int (Path.parent tbl (Path.of_int tbl p))))
      order
  in
  let entry_desigs =
    Array.map
      (fun p -> if p = 0 then -1 else (Path.tag tbl (Path.of_int tbl p) :> int))
      order
  in
  (* A compact table in first-seen order, the built table's own: no save
     writes one, and the load refuses it. *)
  (match of_dictionary ~kinds ~names ~parents ~desigs:entry_desigs with
   | _ -> Alcotest.fail "compact unsorted: a table out of order loaded"
   | exception Invalid_argument msg ->
     Alcotest.(check string) "diagnostic" "designators out of order" msg);
  (* A compact table in (name, kind) order, as xseqcol2 stores it, which
     a load takes as it is. *)
  let sorted =
    let rank = Array.init (Array.length names) Fun.id in
    Array.sort
      (fun a b -> compare (names.(a), kinds.(a)) (names.(b), kinds.(b)))
      rank;
    let of_rank = Array.make (Array.length rank) 0 in
    Array.iteri (fun r d -> of_rank.(d) <- r) rank;
    of_dictionary
      ~kinds:(Array.map (fun d -> kinds.(d)) rank)
      ~names:(Array.map (fun d -> names.(d)) rank)
      ~parents
      ~desigs:
        (Array.map (fun d -> if d < 0 then d else of_rank.(d)) entry_desigs)
  in
  let model = { desigs; edges; npaths = !npaths; built = tbl } in
  check_table "built" model tbl ~path_of:Fun.id rng;
  Alcotest.(check int) "lookups add no designator" (Array.length !all_desigs)
    (D.tag tbl "fresh" :> int);
  List.iter
    (fun (what, loaded) ->
      check_table what model loaded ~path_of:(Array.get entry) rng;
      (* A loaded table interns nothing new: not a name, and not an
         edge the model lacks. *)
      let x = Hashtbl.find desigs (false, "x") in
      let bare = ref 0 in
      while Hashtbl.mem edges (!bare, x) do
        incr bare
      done;
      let d = Option.get (D.find_tag loaded "x") in
      List.iter
        (fun (attempt, f) ->
          match f () with
          | _ -> Alcotest.failf "%s: %s interned" what attempt
          | exception Invalid_argument _ -> ())
        [
          ("a tag", fun () -> ignore (D.tag loaded "fresh"));
          ("a value", fun () -> ignore (D.value loaded "fresh"));
          ( "an edge",
            fun () ->
              ignore (Path.child loaded (Path.of_int loaded entry.(!bare)) d) );
        ])
    [ ("compact in order", sorted) ];
  (* Lexicographic order by spelled-out names. *)
  for _ = 1 to 5_000 do
    let a = Path.of_int tbl (Random.State.int rng !npaths)
    and b = Path.of_int tbl (Random.State.int rng !npaths) in
    Alcotest.(check int) "lex_compare agrees with the model"
      (compare (compare (model_spelling tbl a) (model_spelling tbl b)) 0)
      (compare (Path.lex_compare tbl a b) 0)
  done;
  (* The table of a dictionary equals, name for name, the table interned
     path by path in dictionary order. *)
  let interned = Symtab.create () in
  Array.iteri
    (fun i p ->
      let spelled = model_spelling tbl (Path.of_int tbl p) in
      let q =
        Path.of_list interned
          (List.map
             (fun (rank, name) ->
               if rank = 0 then D.value interned name else D.tag interned name)
             spelled)
      in
      Alcotest.(check int) "interned in dictionary order" i (Path.to_int q);
      List.iter
        (fun loaded ->
          Alcotest.(check (list (pair int string))) "dictionary entry by name"
            spelled
            (model_spelling loaded (Path.of_int loaded i));
          Alcotest.(check int) "dictionary entry depth"
            (Path.depth interned q)
            (Path.depth loaded (Path.of_int loaded i)))
        [ sorted ])
    order;
  List.iter
    (fun loaded ->
      Alcotest.(check int) "dictionary path count" !npaths
        (Symtab.path_count loaded))
    [ sorted ]

(* [Symtab.of_dictionary] keeps every check a snapshot load relies on. *)
let test_symtab_dictionary_checks () =
  let rejects what ~kinds ~names ~parents ~desigs =
    match of_dictionary ~kinds ~names ~parents ~desigs with
    | _ -> Alcotest.failf "accepted a dictionary with %s" what
    | exception Invalid_argument msg ->
      Alcotest.(check string) "diagnostic" what msg
  in
  let kinds = [| 0; 1 |] and names = [| "a"; "a" |] in
  ignore
    (of_dictionary ~kinds ~names ~parents:[| -1; 0; 1 |]
       ~desigs:[| -1; 0; 1 |]);
  rejects "dictionary root" ~kinds ~names ~parents:[||] ~desigs:[||];
  rejects "root entry with a designator" ~kinds ~names ~parents:[| -1 |]
    ~desigs:[| 0 |];
  rejects "designator kind out of range" ~kinds:[| 2 |] ~names:[| "a" |]
    ~parents:[| -1 |] ~desigs:[| -1 |];
  rejects "dictionary parent order" ~kinds ~names ~parents:[| -1; 1 |]
    ~desigs:[| -1; 0 |];
  rejects "designator id out of range" ~kinds ~names ~parents:[| -1; 0 |]
    ~desigs:[| -1; 2 |];
  rejects "duplicate dictionary entry" ~kinds ~names ~parents:[| -1; 0; 0 |]
    ~desigs:[| -1; 1; 1 |];
  rejects "dictionary region sizes" ~kinds ~names ~parents:[| -1; 0 |]
    ~desigs:[| -1 |];
  (* Coded names the reader rejects: truncated, trailing bytes, a
     prefix longer than the name before. *)
  let coded = front_code names in
  List.iter
    (fun names ->
      match
        Symtab.of_dictionary ~scratch:(I32.make 1 0)
          ~kinds:(Bytes.of_string "\000\001") ~names
          ~parents:(I32.of_array [| -1; 0 |])
          ~desigs:(I32.of_array [| -1; 0 |])
      with
      | _ -> Alcotest.fail "accepted bad coded names"
      | exception Invalid_argument msg ->
        Alcotest.(check string) "diagnostic" "designator name table" msg)
    [
      String.sub coded 0 (String.length coded - 1);
      coded ^ "\000";
      "\002\000\000\000\000\001a\002\000";
    ];
  rejects "dictionary region sizes" ~kinds ~names:[| "a" |]
    ~parents:[| -1 |] ~desigs:[| -1 |];
  (* A designator table out of (name, kind) order, or naming one
     designator twice, is refused like any other damage. *)
  List.iter
    (fun (kinds, names) ->
      rejects "designators out of order" ~kinds ~names ~parents:[| -1; 0 |]
        ~desigs:[| -1; 0 |])
    [ ([| 1; 0 |], [| "a"; "a" |]); ([| 0; 0 |], [| "b"; "a" |]);
      ([| 0; 0 |], [| "a"; "a" |]) ];
  (* A repeated edge is found however far apart its entries lie. *)
  rejects "duplicate dictionary entry" ~kinds ~names ~parents:[| -1; 0; 0; 0 |]
    ~desigs:[| -1; 1; 0; 1 |];
  (* Entries need not come in depth order, as a build interns them: a
     loaded depth is counted up the parents. *)
  let loaded =
    of_dictionary ~kinds ~names ~parents:[| -1; 0; 1; 0 |]
      ~desigs:[| -1; 0; 0; 1 |]
  in
  Alcotest.(check (list int)) "depths of an entry order by id" [ 0; 1; 2; 1 ]
    (List.init 4 (fun i -> Path.depth loaded (Path.of_int loaded i)))

(* --- designators in (name, kind) order -------------------------------- *)

(* Names that tie on the radix sort's seven-byte chunks: stems agreeing
   on 7, 8, 14, 15 and 16 bytes, the empty name, and short tails over
   an alphabet with the zero byte (the chunks' padding) and 0xff. *)
let order_name rng =
  let stems =
    [| ""; "abcdefg"; "abcdefgh"; "abcdefghijklmn"; "abcdefghijklmno";
       "abcdefghijklmnop"; "abcdefghijklmnoabcdefghijklmno" |]
  in
  let alphabet = "\000ab\255" in
  stems.(Random.State.int rng (Array.length stems))
  ^ String.init (Random.State.int rng 4) (fun _ ->
        alphabet.[Random.State.int rng (String.length alphabet)])

(* [Symtab.name_order] fixes every compact dictionary's bytes, in both
   formats: on a built table it is the oracle's order, names by
   [String.compare] and tags before values, and [Symtab.coded_names]
   codes the names in it.  A table loaded from that dictionary has its
   ids in that order already: its order is the identity, given without
   a sort (its allocation is the order vector alone), and its coded
   names are the ones it was loaded from; a subset of them is coded as
   the built table codes it. *)
let test_name_order () =
  let rng = Random.State.make [| 34 |] in
  for round = 1 to 200 do
    let tbl = Symtab.create () in
    let interned = Hashtbl.create 64 and desig_of = Hashtbl.create 64 in
    let intern is_value name =
      let d = if is_value then D.value tbl name else D.tag tbl name in
      Hashtbl.replace interned (d :> int) (name, is_value);
      Hashtbl.replace desig_of (d :> int) d
    in
    intern false "twin";
    intern true "twin";
    intern (round mod 2 = 0) "";
    for _ = 1 to if round mod 20 = 0 then 4_000 else 1 + Random.State.int rng 60 do
      intern (Random.State.bool rng) (order_name rng)
    done;
    let oracle =
      List.sort
        (fun a b ->
          let name_a, value_a = Hashtbl.find interned a
          and name_b, value_b = Hashtbl.find interned b in
          match String.compare name_a name_b with
          | 0 -> Bool.compare value_a value_b
          | c -> c)
        (List.of_seq (Hashtbl.to_seq_keys interned))
    in
    let order = Symtab.name_order tbl in
    Alcotest.(check (list int)) "the oracle's order" oracle
      (Array.to_list (I32.to_array order));
    let spelled d = D.name tbl (Hashtbl.find desig_of d) in
    List.iter
      (fun d ->
        Alcotest.(check string) "a name" (fst (Hashtbl.find interned d))
          (spelled d))
      oracle;
    (* The compact dictionary of one path per designator, as a save
       writes it: ranks in the order above. *)
    let ranked = Array.of_list oracle in
    let n = Array.length ranked in
    let coded = Symtab.coded_names tbl order in
    let loaded =
      Symtab.of_dictionary ~scratch:(I32.make n 0)
        ~kinds:
          (Bytes.init n (fun r ->
               if snd (Hashtbl.find interned ranked.(r)) then '\001'
               else '\000'))
        ~names:coded
        ~parents:
          (I32.of_array (Array.init (n + 1) (fun i -> if i = 0 then -1 else 0)))
        ~desigs:(I32.of_array (Array.init (n + 1) (fun i -> i - 1)))
    in
    let _, promoted0, major0 = Gc.counters () and minor0 = Gc.minor_words () in
    let again = Symtab.name_order loaded in
    let _, promoted1, major1 = Gc.counters () and minor1 = Gc.minor_words () in
    Alcotest.(check (list int)) "a loaded table's order is the identity"
      (List.init n Fun.id)
      (Array.to_list (I32.to_array again));
    Array.iteri
      (fun r d ->
        let name, is_value = Hashtbl.find interned d in
        match (if is_value then D.find_value else D.find_tag) loaded name with
        | None -> Alcotest.failf "a loaded table lacks %S" name
        | Some found ->
          Alcotest.(check int) "a loaded designator's rank" r (found :> int);
          Alcotest.(check string) "a loaded table's name" name
            (D.name loaded found))
      ranked;
    Alcotest.(check bool) "a loaded table's coded names are its own" true
      (Symtab.coded_names loaded again == coded);
    let even = List.filteri (fun r _ -> r mod 2 = 0) in
    Alcotest.(check string) "a subset coded as the built table codes it"
      (Symtab.coded_names tbl (I32.of_array (Array.of_list (even oracle))))
      (Symtab.coded_names loaded
         (I32.of_array (Array.of_list (even (List.init n Fun.id)))));
    (* The order vector: four bytes an element and a header word; a
       sort's key array alone is a word an element. *)
    let words =
      minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
    in
    if words > float_of_int ((n / 2) + 16) then
      Alcotest.failf "the order of a loaded table of %d allocated %.0f words"
        n words
  done

(* --- constraints --------------------------------------------------------- *)

(* The paper's forward-prefix example (Section 2.3): in
   <P, PD, PDL, PDLv1, PD, PDM, PDMv3>, the second PD (index 4) is the
   forward prefix of PDM (index 5), not the first PD (index 1). *)
let fp_example =
  [|
    p_of [ "P" ];
    p_of [ "P"; "D" ];
    p_of [ "P"; "D"; "L" ];
    Path.child sy (p_of [ "P"; "D"; "L" ]) (D.value sy "v1");
    p_of [ "P"; "D" ];
    p_of [ "P"; "D"; "M" ];
    Path.child sy (p_of [ "P"; "D"; "M" ]) (D.value sy "v3");
  |]

(* The forward prefix of element [j], through [holds F2]: the earlier
   elements at its parent's depth that it holds with. *)
let forward_prefix j =
  List.filter
    (fun i ->
      Path.depth sy fp_example.(i) = Path.depth sy fp_example.(j) - 1
      && C.holds sy C.F2 fp_example i j)
    (List.init j Fun.id)

let test_forward_prefix () =
  Alcotest.(check (list int)) "PDM's fp is 2nd PD" [ 4 ] (forward_prefix 5);
  Alcotest.(check (list int)) "PDL's fp is 1st PD" [ 1 ] (forward_prefix 2);
  Alcotest.(check (list int)) "root has none" [] (forward_prefix 0)

let test_constraint_holds () =
  Alcotest.(check bool) "f2: 2nd PD ancestor of PDM" true (C.holds sy C.F2 fp_example 4 5);
  Alcotest.(check bool) "f2: 1st PD not ancestor of PDM" false
    (C.holds sy C.F2 fp_example 1 5);
  Alcotest.(check bool) "f1 can't tell them apart" true (C.holds sy C.F1 fp_example 1 5)

let test_is_valid () =
  Alcotest.(check bool) "example valid" true (C.is_valid sy fp_example);
  Alcotest.(check bool) "empty invalid" false (C.is_valid sy [||]);
  Alcotest.(check bool) "orphan invalid" false
    (C.is_valid sy [| p_of [ "P" ]; p_of [ "P"; "D"; "L" ] |]);
  Alcotest.(check bool) "deep first invalid" false
    (C.is_valid sy [| p_of [ "P"; "D" ] |]);
  (* Every later element needs a forward prefix: its parent's path
     somewhere before it. *)
  Alcotest.(check bool) "parent after child invalid" false
    (C.is_valid sy
       [| p_of [ "P" ]; p_of [ "P"; "D"; "L" ]; p_of [ "P"; "D" ] |]);
  Alcotest.(check bool) "value under a missing element invalid" false
    (C.is_valid sy [| fp_example.(0); fp_example.(1); fp_example.(3) |]);
  Alcotest.(check bool) "first PD dropped invalid" false
    (C.is_valid sy
       (Array.append [| fp_example.(0) |] (Array.sub fp_example 2 5)));
  Alcotest.(check bool) "second PD dropped: PDM takes the first" true
    (C.is_valid sy
       (Array.append (Array.sub fp_example 0 4) (Array.sub fp_example 5 2)));
  for k = 1 to Array.length fp_example do
    Alcotest.(check bool) "every prefix valid" true
      (C.is_valid sy (Array.sub fp_example 0 k))
  done

(* --- encoder: paper's Table 1 -------------------------------------------- *)

(* Figure 3(b): P(xml, D(L(boston)), D(M(johnson))) depth-first. *)
let fig3b =
  e "P" [ v "xml"; e "D" [ e "L" [ v "boston" ] ]; e "D" [ e "M" [ v "johnson" ] ] ]

let fig3c =
  e "P" [ v "xml"; e "D" []; e "D" [ e "L" [ v "boston" ]; e "M" [ v "johnson" ] ] ]

let path_strings seq = List.map (Path.to_string sy) (Array.to_list seq)

let test_table1_depth_first () =
  Alcotest.(check (list string)) "fig 3(b)"
    [
      "P"; "P.v(xml)"; "P.D"; "P.D.L"; "P.D.L.v(boston)"; "P.D"; "P.D.M";
      "P.D.M.v(johnson)";
    ]
    (path_strings (Enc.encode sy ~strategy:S.Depth_first fig3b));
  Alcotest.(check (list string)) "fig 3(c)"
    [
      "P"; "P.v(xml)"; "P.D"; "P.D"; "P.D.L"; "P.D.L.v(boston)"; "P.D.M";
      "P.D.M.v(johnson)";
    ]
    (path_strings (Enc.encode sy ~strategy:S.Depth_first fig3c))

let test_breadth_first () =
  let t = e "P" [ e "R" [ e "M" [] ]; e "D" [ e "U" [] ] ] in
  Alcotest.(check (list string)) "level order"
    [ "P"; "P.R"; "P.D"; "P.R.M"; "P.D.U" ]
    (path_strings (Enc.encode sy ~strategy:S.Breadth_first t))

let test_probability_order () =
  (* Higher p' comes out earlier regardless of document order. *)
  let t = e "P" [ e "Rare" [] ; e "Common" [] ] in
  let prio p = if D.name sy (Path.tag sy p) = "Common" then 0.9 else 0.1 in
  Alcotest.(check (list string)) "by probability"
    [ "P"; "P.Common"; "P.Rare" ]
    (path_strings (Enc.encode sy ~strategy:(S.Probability prio) t))

let test_identical_sibling_recursion () =
  (* With identical siblings, the first selected sibling's whole subtree is
     emitted before the second sibling, even when a deep child has a low
     priority (Algorithm 2). *)
  let t =
    e "P" [ e "D" [ e "Low" [] ]; e "D" [ e "High" [] ]; e "Mid" [] ]
  in
  let prio p =
    match D.name sy (Path.tag sy p) with
    | "D" -> 0.8
    | "Mid" -> 0.5
    | "High" -> 0.4
    | "Low" -> 0.1
    | _ -> 1.0
  in
  Alcotest.(check (list string)) "subtree contiguity"
    [ "P"; "P.D"; "P.D.Low"; "P.D"; "P.D.High"; "P.Mid" ]
    (path_strings (Enc.encode sy ~strategy:(S.Probability prio) t))

let test_ident_flag_extends () =
  (* The global flag forces contiguity even without local duplicates. *)
  let t = e "P" [ e "D" [ e "Low" [] ]; e "Mid" [] ] in
  let prio p =
    match D.name sy (Path.tag sy p) with
    | "D" -> 0.8
    | "Mid" -> 0.5
    | "Low" -> 0.1
    | _ -> 1.0
  in
  let flagged = p_of [ "P"; "D" ] in
  Alcotest.(check (list string)) "flag-triggered contiguity"
    [ "P"; "P.D"; "P.D.Low"; "P.Mid" ]
    (path_strings
       (Enc.encode sy ~ident:(Path.equal flagged) ~strategy:(S.Probability prio) t));
  Alcotest.(check (list string)) "without flag, priority order"
    [ "P"; "P.D"; "P.Mid"; "P.D.Low" ]
    (path_strings (Enc.encode sy ~strategy:(S.Probability prio) t))

(* The global identical-sibling trigger a build derives: a record
   containing P.D twice makes every record sequence P.D's subtree
   contiguously, as an explicit [ident] does above. *)
let test_multiple_paths () =
  let prio symbols p =
    match D.name symbols (Path.tag symbols p) with
    | "D" -> 0.8
    | "Mid" -> 0.5
    | "High" -> 0.4
    | "Low" -> 0.1
    | _ -> 1.0
  in
  let twice =
    e "P" [ e "D" [ e "Low" [] ]; e "D" [ e "High" [] ]; e "Mid" [] ]
  in
  let once = e "P" [ e "D" [ e "Low" [] ]; e "Mid" [] ] in
  (* The sequence of record [doc]: the paths of the trie nodes on the
     root-to-end chain of its entry in the document table, i.e. the link
     entries whose range holds that entry's serial, in serial order. *)
  let sequence_of docs doc =
    let config =
      {
        Xseq.default_config with
        sequencing = Xseq.Custom (fun symbols -> S.Probability (prio symbols));
      }
    in
    let l = Xseq.labeled (Xseq.build ~config docs) in
    let module L = Xindex.Labeled in
    let entry =
      List.find
        (fun i -> L.doc_id_at l i = doc)
        (List.init (L.doc_len l) Fun.id)
    in
    let last = L.doc_pre_at l entry in
    List.init (Symtab.path_count (L.symbols l)) (Path.of_int (L.symbols l))
    |> List.filter (fun p -> L.link l p <> None)
    |> List.concat_map (fun p ->
           let k = Option.get (L.link l p) in
           List.init (L.link_length k) Fun.id
           |> List.filter (fun i ->
                  L.link_pre k i <= last
                  && L.link_pre k i + L.link_span k i >= last)
           |> List.map (fun i -> (L.link_pre k i, p)))
    |> List.sort compare
    |> List.map (fun (_, p) -> Path.to_string (L.symbols l) p)
  in
  Alcotest.(check (list string)) "alone, priority order"
    [ "P"; "P.D"; "P.Mid"; "P.D.Low" ]
    (sequence_of [| once |] 0);
  Alcotest.(check (list string)) "beside a duplicate, contiguous"
    [ "P"; "P.D"; "P.D.Low"; "P.Mid" ]
    (sequence_of [| twice; once |] 1)

let test_text_mode () =
  let t = e "L" [ v "ab" ] in
  Alcotest.(check (list string)) "char chain"
    [ "L"; "L.v(a)"; "L.v(a).v(b)"; "L.v(a).v(b).v(\x00end)" ]
    (path_strings (Enc.encode sy ~value_mode:Enc.Text ~strategy:S.Depth_first t))

(* --- decoder ------------------------------------------------------------- *)

let test_decode_exact_df () =
  let seq = Enc.encode sy ~strategy:S.Depth_first fig3b in
  Alcotest.(check bool) "df round trip is exact" true (T.equal (Dec.decode sy seq) fig3b)

let test_decode_invalid () =
  (match Dec.decode sy [||] with
   | exception Dec.Invalid_sequence _ -> ()
   | _ -> Alcotest.fail "empty must fail");
  (match Dec.decode sy [| p_of [ "P" ]; p_of [ "Q" ] |] with
   | exception Dec.Invalid_sequence _ -> ()
   | _ -> Alcotest.fail "two roots must fail");
  (* A decoder forgets each sequence, decoded or refused: an orphan
     never finds a parent in an earlier one. *)
  let decode = Dec.decoder sy in
  let seq = Enc.encode sy ~strategy:S.Depth_first fig3b in
  let orphan = [| p_of [ "P" ]; p_of [ "P"; "D"; "L" ] |] in
  let refused what s =
    match decode s with
    | exception Dec.Invalid_sequence _ -> ()
    | _ -> Alcotest.failf "%s must fail" what
  in
  Alcotest.(check bool) "decoded" true (T.equal (decode seq) fig3b);
  refused "an orphan after a decode" orphan;
  refused "a sequence ending in an orphan" (Array.append seq orphan);
  refused "an orphan after a refusal" orphan;
  Alcotest.(check bool) "decoded again" true (T.equal (decode seq) fig3b)

(* --- properties ---------------------------------------------------------- *)

let tags = [| "a"; "b"; "c" |]
let vals = [| "v0"; "v1" |]

let tree_gen : T.t Gen.t =
  let open Gen in
  let rec node depth st =
    let fanout = if depth >= 4 then 0 else int_bound (4 - depth) st in
    let kids =
      List.init fanout (fun _ ->
          if int_bound 3 st = 0 then T.Value (oneofa vals st) else node (depth + 1) st)
    in
    T.elt (oneofa tags st) kids
  in
  node 0

let arb_tree = QCheck.make ~print:(Format.asprintf "%a" T.pp) tree_gen

let strategies =
  [
    ("df", S.Depth_first);
    ("bf", S.Breadth_first);
    ("random", S.Random 1234);
    ( "prob",
      S.Probability (fun p -> 1.0 /. float_of_int (1 + (Path.to_int p mod 17))) );
  ]

let prop_valid name strategy =
  QCheck.Test.make
    ~name:(Printf.sprintf "encode %s yields valid constraint sequence" name)
    ~count:300 arb_tree (fun t ->
      C.is_valid sy (Enc.encode sy ~strategy t))

let prop_roundtrip name strategy =
  QCheck.Test.make
    ~name:(Printf.sprintf "decode (encode %s) isomorphic" name)
    ~count:300 arb_tree (fun t ->
      T.isomorphic t (Dec.decode sy (Enc.encode sy ~strategy t)))

let prop_multiset name strategy =
  QCheck.Test.make
    ~name:(Printf.sprintf "encode %s preserves path multiset" name)
    ~count:300 arb_tree (fun t ->
      let sorted a =
        let l = Array.to_list a in
        List.sort Path.compare l
      in
      sorted (Enc.encode sy ~strategy t) = sorted (Enc.paths_of_tree sy t))

let prop_ident_still_valid =
  QCheck.Test.make ~name:"global ident flag keeps sequences valid" ~count:300
    arb_tree (fun t ->
      let seq =
        Enc.encode sy ~ident:(fun p -> Path.to_int p mod 2 = 0)
          ~strategy:S.Breadth_first t
      in
      C.is_valid sy seq && T.isomorphic t (Dec.decode sy seq))

let prop_text_mode_roundtrip =
  QCheck.Test.make ~name:"text mode sequences valid" ~count:200 arb_tree (fun t ->
      C.is_valid sy (Enc.encode sy ~value_mode:Enc.Text ~strategy:S.Depth_first t))

(* With its sibling-order exceptions a sequence decodes to its record
   exactly, under every strategy, both value modes, with or without a
   global identical-sibling flag, and flattened in record or in tag
   order (the canonical modes'). *)
let prop_ordered_exact name strategy =
  QCheck.Test.make
    ~name:(Printf.sprintf "decode with sibling order is exact (%s)" name)
    ~count:200
    (QCheck.pair arb_tree QCheck.bool)
    (fun (t, flagged) ->
      let ident p = flagged && Path.to_int p mod 2 = 0 in
      List.for_all
        (fun (value_mode, sorted) ->
          let f = Enc.flatten ~value_mode ~sorted sy t in
          let seq, order = Enc.sequence_ordered ~ident ~strategy sy f in
          T.equal t (Dec.decode ~value_mode ~order sy seq))
        [ (Enc.Hashed, false); (Enc.Hashed, true); (Enc.Text, false);
          (Enc.Text, true) ])

(* Text-mode values come back whole: empty, prefixes of one another,
   beside elements and each other. *)
let test_decode_text_values () =
  let t =
    T.elt "r"
      [
        T.Value "ab"; T.Value ""; T.elt "b" [ T.Value "a" ]; T.Value "a";
        T.Value "ab"; T.elt "b" [];
      ]
  in
  List.iter
    (fun (name, strategy) ->
      let f = Enc.flatten ~value_mode:Enc.Text sy t in
      let seq, order = Enc.sequence_ordered ~strategy sy f in
      Alcotest.(check bool) (name ^ ": text values decoded whole") true
        (T.equal t (Dec.decode ~value_mode:Enc.Text ~order sy seq)))
    strategies;
  match
    Dec.decode ~order:[| 1; 5 |] sy
      (Enc.encode ~strategy:S.Depth_first sy (T.elt "r" [ T.elt "a" [] ]))
  with
  | _ -> Alcotest.fail "a rank past the siblings was placed"
  | exception Dec.Invalid_sequence _ -> ()

let () =
  Alcotest.run "sequencing"
    [
      ( "designator",
        [
          Alcotest.test_case "identity" `Quick test_designator_identity;
          Alcotest.test_case "tables are independent" `Quick
            test_tables_independent;
        ] );
      ( "paths",
        [
          Alcotest.test_case "intern" `Quick test_path_intern;
          Alcotest.test_case "prefix" `Quick test_path_prefix;
          Alcotest.test_case "roundtrip" `Quick test_path_roundtrip;
          Alcotest.test_case "lex compare" `Quick test_lex_compare;
          Alcotest.test_case "element children" `Quick test_element_children;
          Alcotest.test_case "symbol table against a model" `Quick
            test_symtab_model;
          Alcotest.test_case "dictionary checks" `Quick
            test_symtab_dictionary_checks;
          Alcotest.test_case "designators in (name, kind) order" `Quick
            test_name_order;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "forward prefix" `Quick test_forward_prefix;
          Alcotest.test_case "holds" `Quick test_constraint_holds;
          Alcotest.test_case "is_valid" `Quick test_is_valid;
        ] );
      ( "encoder",
        [
          Alcotest.test_case "table 1 depth-first" `Quick test_table1_depth_first;
          Alcotest.test_case "breadth-first" `Quick test_breadth_first;
          Alcotest.test_case "probability order" `Quick test_probability_order;
          Alcotest.test_case "identical sibling recursion" `Quick
            test_identical_sibling_recursion;
          Alcotest.test_case "global ident flag" `Quick test_ident_flag_extends;
          Alcotest.test_case "multiple paths" `Quick test_multiple_paths;
          Alcotest.test_case "text mode" `Quick test_text_mode;
        ] );
      ( "decoder",
        [
          Alcotest.test_case "df exact" `Quick test_decode_exact_df;
          Alcotest.test_case "invalid input" `Quick test_decode_invalid;
          Alcotest.test_case "text values" `Quick test_decode_text_values;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (List.concat_map
             (fun (name, s) ->
               [ prop_valid name s; prop_roundtrip name s; prop_multiset name s ])
             strategies
          @ [ prop_ident_still_valid; prop_text_mode_roundtrip ]
          @ List.map (fun (name, s) -> prop_ordered_exact name s) strategies)
      );
    ]
