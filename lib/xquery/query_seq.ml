module Path = Sequencing.Symtab.Path
module Strategy = Sequencing.Strategy
module Scheduler = Sequencing.Scheduler

type compiled = { paths : Path.t array; parents : int array }

exception Unsupported_strategy of string

(* --- identical-sibling permutation expansion ------------------------- *)

(* The distinct arrangements of a multiset, lazily.  [classes] pairs one
   representative of each structurally distinct member with its
   multiplicity; each arrangement comes out exactly once — k!/(c1!…cm!)
   of them, so a group of k identical members has one, where listing all
   k! permutations and deduplicating afterwards is exponential. *)
let rec arrangements classes : Instantiate.cnode list Seq.t =
  if List.for_all (fun (_, c) -> c = 0) classes then Seq.return []
  else
    Seq.flat_map
      (fun (x, c) ->
        if c = 0 then Seq.empty
        else
          let rest =
            List.map (fun (y, d) -> if y == x then (y, d - 1) else (y, d)) classes
          in
          Seq.map (fun tail -> x :: tail) (arrangements rest))
      (List.to_seq classes)

(* The classes of structurally equal members, in first-occurrence order,
   with their counts. *)
let multiset members =
  List.fold_left
    (fun classes m ->
      if List.exists (fun (y, _) -> Instantiate.cnode_compare y m = 0) classes then
        List.map
          (fun (y, d) -> if Instantiate.cnode_compare y m = 0 then (y, d + 1) else (y, d))
          classes
      else classes @ [ (m, 1) ])
    [] members

(* All distinct reorderings of [kids] where members of each same-path
   group permute among that group's positions (other positions keep
   their occupant), generated lazily. *)
let group_permutations kids : Instantiate.cnode list Seq.t =
  let arr = Array.of_list kids in
  let groups : int list list =
    let tbl = Hashtbl.create 8 in
    Array.iteri
      (fun i (c : Instantiate.cnode) ->
        let l = try Hashtbl.find tbl c.path with Not_found -> [] in
        Hashtbl.replace tbl c.path (i :: l))
      arr;
    Hashtbl.fold
      (fun _ l acc -> if List.compare_length_with l 1 > 0 then List.rev l :: acc else acc)
      tbl []
  in
  (* One group at a time: each arrangement of the group fills its
     positions in a copy of every partial assignment so far. *)
  let fill (partial : Instantiate.cnode array) positions arrangement =
    let copy = Array.copy partial in
    List.iter2 (fun pos m -> copy.(pos) <- m) positions arrangement;
    copy
  in
  if groups = [] then Seq.return kids
  else
    List.fold_left
      (fun partials positions ->
        let classes = multiset (List.map (fun i -> arr.(i)) positions) in
        Seq.flat_map
          (fun partial -> Seq.map (fill partial positions) (arrangements classes))
          partials)
      (Seq.return arr) groups
    |> Seq.map Array.to_list

let rec expand_variants ~budget (c : Instantiate.cnode) : Instantiate.cnode list =
  (* Variants of every child, then the cartesian product, then sibling
     group permutations of each product member — all lazy, and each
     variant is charged to the budget as it is generated, so an
     over-budget node stops at the budget instead of building every
     variant first. *)
  let kid_variant_lists = List.map (expand_variants ~budget) c.kids in
  let products =
    List.fold_right
      (fun variants rest ->
        Seq.flat_map
          (fun v -> Seq.map (fun tail -> v :: tail) rest)
          (List.to_seq variants))
      kid_variant_lists (Seq.return [])
  in
  List.of_seq
    (Seq.map
       (fun kids ->
         budget 1;
         { Instantiate.path = c.path; kids })
       (Seq.flat_map group_permutations products))

(* --- junction normalisation ------------------------------------------ *)

(* Documents sequence every subtree rooted at a {e flagged} path (one that
   occurs twice in some document) contiguously — Algorithm 2's recursion.
   A query element whose concrete path passes {e through} such a path must
   therefore be wrapped in an explicit junction node so the query emits it
   inside the corresponding block; and when several branches pass through
   the same flagged step, each way of distributing them over distinct
   blocks (a set partition) is a separate variant whose results are
   unioned.  Parts containing two {e explicit} nodes of that path are
   invalid (injectivity).  Unflagged steps have at most one data node per
   document, so sharing is forced and no ordering deviation exists. *)

(* The set partitions of a list whose every part satisfies [ok].  [ok]
   must hold of every singleton and survive removing members from a part
   (a failing part stays failing as it grows), so failing parts are
   pruned as they form:
   k explicit members of one path yield their single valid partition
   instead of all Bell(k) partitions, filtered afterwards. *)
let rec partitions ~ok = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun parts ->
        ([ x ] :: parts)
        :: List.filter_map Fun.id
             (List.mapi
                (fun i p ->
                  if ok (x :: p) then
                    Some (List.mapi (fun j p -> if i = j then x :: p else p) parts)
                  else None)
                parts))
      (partitions ~ok rest)

let rec normalize symbols ~flagged ~budget (c : Instantiate.cnode) :
    Instantiate.cnode list =
  let cd = Path.depth symbols c.path in
  (* Group children by their first step below [c]. *)
  let step (k : Instantiate.cnode) =
    Path.ancestor_at_depth symbols k.path (cd + 1)
  in
  let groups : (Path.t * Instantiate.cnode list) list =
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun k ->
        let s = step k in
        (match Hashtbl.find_opt tbl s with
         | Some l -> Hashtbl.replace tbl s (k :: l)
         | None ->
           Hashtbl.replace tbl s [ k ];
           order := s :: !order))
      c.kids;
    List.rev_map (fun s -> (s, List.rev (Hashtbl.find tbl s))) !order
  in
  let is_explicit s (k : Instantiate.cnode) = Path.equal k.path s in
  (* Wrap a lone deep child in junctions at every flagged intermediate
     level (shallowest first; recursion handles the rest). *)
  let rec wrap_deep parent_depth (k : Instantiate.cnode) =
    let kd = Path.depth symbols k.path in
    let rec first_flagged d =
      if d >= kd then None
      else begin
        let anc = Path.ancestor_at_depth symbols k.path d in
        if flagged anc then Some anc else first_flagged (d + 1)
      end
    in
    match first_flagged (parent_depth + 1) with
    | Some anc when not (Path.equal anc k.path) ->
      {
        Instantiate.path = anc;
        kids = [ wrap_deep (Path.depth symbols anc) k ];
      }
    | _ -> k
  in
  (* Variants for one sibling group at step [s]. *)
  let group_variants (s, members) : Instantiate.cnode list list =
    let explicit_count = List.length (List.filter (is_explicit s) members) in
    let merge part =
      (* One s-node absorbing the whole part. *)
      let kids =
        List.concat_map
          (fun (k : Instantiate.cnode) ->
            if is_explicit s k then k.kids else [ k ])
          part
      in
      { Instantiate.path = s; kids }
    in
    if flagged s then begin
      let parts_ok part =
        List.length (List.filter (is_explicit s) part) <= 1
      in
      List.map (List.map merge) (partitions ~ok:parts_ok members)
    end
    else if explicit_count >= 2 then
      (* Two distinct query nodes on an unflagged path: no document can
         satisfy them. *)
      []
    else begin
      match members with
      | [ k ] when is_explicit s k -> [ [ k ] ]
      | [ k ] -> [ [ wrap_deep cd k ] ]
      | _ -> [ [ merge members ] ]
    end
  in
  let per_group = List.map group_variants groups in
  if List.exists (fun v -> v = []) per_group then []
  else begin
    (* Cartesian product over groups, then recurse into every child. *)
    let combos =
      List.fold_left
        (fun acc variants ->
          List.concat_map
            (fun kids -> List.map (fun prefix -> prefix @ kids) acc)
            variants)
        [ [] ] per_group
    in
    let results =
      List.concat_map
        (fun kids ->
          (* Normalise each child; product of the children's variants. *)
          let kid_variants =
            List.map (normalize symbols ~flagged ~budget) kids
          in
          if List.exists (fun v -> v = []) kid_variants then []
          else
            List.map
              (fun rev -> { Instantiate.path = c.path; kids = List.rev rev })
              (List.fold_left
                 (fun acc variants ->
                   List.concat_map
                     (fun v -> List.map (fun prefix -> v :: prefix) acc)
                     variants)
                 [ [] ] kid_variants))
        combos
    in
    budget (List.length results);
    results
  end

(* --- flattening and sequencing --------------------------------------- *)

type flat = {
  fpaths : Path.t array;
  fparents : int array;
  fchildren : int list array;
  fident : bool array;
}

let flatten (c : Instantiate.cnode) =
  let n = Instantiate.cnode_size c in
  let fpaths = Array.make n Path.epsilon in
  let fparents = Array.make n (-1) in
  let fchildren = Array.make n [] in
  let fident = Array.make n false in
  let counter = ref 0 in
  let rec walk parent (node : Instantiate.cnode) =
    let me = !counter in
    incr counter;
    fpaths.(me) <- node.path;
    fparents.(me) <- parent;
    let kid_ids =
      List.rev
        (List.fold_left (fun acc k -> walk me k :: acc) [] node.kids)
    in
    fchildren.(me) <- kid_ids;
    (* identical flags among this node's children *)
    List.iter
      (fun i ->
        fident.(i) <-
          List.exists
            (fun j -> j <> i && Path.equal fpaths.(j) fpaths.(i))
            kid_ids)
      kid_ids;
    me
  in
  ignore (walk (-1) c);
  { fpaths; fparents; fchildren; fident }

(* Dense lexicographic ranks: equal paths share a rank, so the scheduler
   falls through to its rank (document-position) tie-break — which is what
   lets identical-sibling permutations produce distinct sequences. *)
let lex_ranks symbols paths =
  let n = Array.length paths in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Path.lex_compare symbols paths.(a) paths.(b)) order;
  let rank = Array.make n 0 in
  let current = ref 0 in
  Array.iteri
    (fun pos i ->
      if pos > 0 && not (Path.equal paths.(order.(pos - 1)) paths.(i)) then
        incr current;
      rank.(i) <- !current)
    order;
  rank

let compile_one symbols ~flagged ~strategy flat =
  let has_identical i = flat.fident.(i) || flagged flat.fpaths.(i) in
  let prio =
    match strategy with
    | Strategy.Probability f -> fun i -> f flat.fpaths.(i)
    | Strategy.Depth_first ->
      let rank = lex_ranks symbols flat.fpaths in
      fun i -> -.float_of_int rank.(i)
    | Strategy.Breadth_first ->
      let rank = lex_ranks symbols flat.fpaths in
      fun i ->
        -.float_of_int
            ((Path.depth symbols flat.fpaths.(i) * (1 lsl 26)) + rank.(i))
    | Strategy.Random _ ->
      raise (Unsupported_strategy "random sequencing cannot be queried")
  in
  let spec =
    {
      Scheduler.prio;
      depth = (fun i -> Path.depth symbols flat.fpaths.(i));
      path_id = (fun i -> Path.to_int flat.fpaths.(i));
      rank = (fun i -> i);
      iter_children = (fun i f -> List.iter f flat.fchildren.(i));
      has_identical;
    }
  in
  let order = Scheduler.emit spec ~root:0 in
  let n = Array.length flat.fpaths in
  let position = Array.make n 0 in
  List.iteri (fun pos i -> position.(i) <- pos) order;
  let paths = Array.make n Path.epsilon in
  let parents = Array.make n (-1) in
  List.iteri
    (fun pos i ->
      paths.(pos) <- flat.fpaths.(i);
      parents.(pos) <- (if flat.fparents.(i) < 0 then -1 else position.(flat.fparents.(i))))
    order;
  { paths; parents }

let compile ?(max_expansions = 256) ?(flagged = fun _ -> true) ~strategy
    symbols cnode =
  let count = ref 0 in
  let budget n =
    count := !count + n;
    if !count > max_expansions then raise (Instantiate.Too_many !count)
  in
  let normalized = normalize symbols ~flagged ~budget cnode in
  let variants = List.concat_map (expand_variants ~budget) normalized in
  let compiled =
    List.map
      (fun v -> compile_one symbols ~flagged ~strategy (flatten v))
      variants
  in
  (* Deduplicate sequences that coincide (identical sibling subtrees that
     are themselves equal produce equal permutations). *)
  let module S = Set.Make (struct
    type t = compiled

    let compare a b =
      let c = Stdlib.compare (Array.map Path.to_int a.paths) (Array.map Path.to_int b.paths) in
      if c <> 0 then c else Stdlib.compare a.parents b.parents
  end) in
  S.elements (S.of_list compiled)

