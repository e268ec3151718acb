module D = Sequencing.Symtab.Designator
module Path = Sequencing.Symtab.Path
module Encoder = Sequencing.Encoder

exception Too_many of int
exception Unsupported of string

type cnode = { path : Path.t; kids : cnode list }

let rec cnode_size c = List.fold_left (fun n k -> n + cnode_size k) 1 c.kids

let rec cnode_compare a b =
  let c = Path.compare a.path b.path in
  if c <> 0 then c else List.compare cnode_compare a.kids b.kids

(* All element paths strictly below [p] (any depth). *)
let descendants symbols p =
  let acc = ref [] in
  let rec walk q =
    List.iter
      (fun c ->
        acc := c :: !acc;
        walk c)
      (Path.element_children symbols q)
  in
  walk p;
  List.rev !acc

(* Candidate paths for an element step relative to concrete parent [pp]:
   a name test is one lookup in the table, a wildcard every child or
   descendant.  A descendant name test resolves the name once and
   compares designator ids; a name the table lacks has no candidate. *)
let element_candidates symbols test axis pp =
  match axis, test with
  | Pattern.Child, Pattern.Tag s ->
    Option.to_list
      (Option.bind (D.find_tag symbols s) (Path.find_child symbols pp))
  | Pattern.Child, Pattern.Star -> Path.element_children symbols pp
  | Pattern.Descendant, Pattern.Tag s -> (
    match D.find_tag symbols s with
    | None -> []
    | Some d ->
      List.filter
        (fun p -> D.equal (Path.tag symbols p) d)
        (descendants symbols pp))
  | Pattern.Descendant, Pattern.Star -> descendants symbols pp
  | _, (Pattern.Text _ | Pattern.Text_prefix _) -> assert false

(* A value leaf under concrete parent [pp]: a single node (hashed) or a
   chain of character nodes (text mode).

   Value designators are resolved with the non-interning
   [D.find_value]: a probed value that no document contains simply has
   no designator and yields no candidate.  This keeps query compilation
   strictly read-only on the index's symbol table, which is what makes
   [Xseq.query_batch] safe to run on several domains at once. *)
let find_value_child symbols pp s =
  Option.bind (D.find_value symbols s) (Path.find_child symbols pp)

let value_cnode symbols ~value_mode pp test =
  match value_mode, test with
  | Encoder.Hashed, Pattern.Text s ->
    (match find_value_child symbols pp s with
     | Some p -> [ { path = p; kids = [] } ]
     | None -> [])
  | Encoder.Hashed, Pattern.Text_prefix _ ->
    raise (Unsupported "Text_prefix requires a Text value-mode index")
  | Encoder.Text, (Pattern.Text s | Pattern.Text_prefix s) ->
    let terminated = match test with Pattern.Text _ -> true | _ -> false in
    let rec chain pp i =
      if i >= String.length s then
        if terminated then
          match find_value_child symbols pp Encoder.value_end with
          | Some p -> Some { path = p; kids = [] }
          | None -> None
        else None (* prefix query: chain ends at the last character *)
      else begin
        match find_value_child symbols pp (String.make 1 s.[i]) with
        | Some p ->
          if (not terminated) && i = String.length s - 1 then
            Some { path = p; kids = [] }
          else
            (match chain p (i + 1) with
             | Some k -> Some { path = p; kids = [ k ] }
             | None -> None)
        | None -> None
      end
    in
    if String.length s = 0 && not terminated then
      raise (Unsupported "empty Text_prefix")
    else (match chain pp 0 with Some c -> [ c ] | None -> [])
  | _, (Pattern.Tag _ | Pattern.Star) -> assert false

let run ?(limit = 4096) ~value_mode symbols (pattern : Pattern.t) =
  let count = ref 0 in
  let budget n =
    count := !count + n;
    if !count > limit then raise (Too_many !count)
  in
  (* Instantiate [p] under concrete parent path [pp]; returns all cnodes. *)
  let rec inst pp (p : Pattern.t) =
    match p.test with
    | Pattern.Text _ | Pattern.Text_prefix _ ->
      if p.children <> [] then invalid_arg "Instantiate: value test with children";
      (match p.axis with
       | Pattern.Child -> value_cnode symbols ~value_mode pp p.test
       | Pattern.Descendant ->
         (* text under // : attach under every descendant slot *)
         List.concat_map
           (fun anc -> value_cnode symbols ~value_mode anc p.test)
           (pp :: descendants symbols pp)
         |> fun l ->
         (* also directly under pp's own children slots is included via
            descendants; dedup identical paths *)
         List.sort_uniq (fun a b -> Path.compare a.path b.path) l)
    | Pattern.Tag _ | Pattern.Star ->
      let candidates = element_candidates symbols p.test p.axis pp in
      List.concat_map
        (fun path ->
          let kid_choices = List.map (inst path) p.children in
          if List.exists (fun l -> l = []) kid_choices then []
          else begin
            (* cartesian product of children instantiations *)
            let product =
              List.fold_left
                (fun acc choices ->
                  List.concat_map
                    (fun partial -> List.map (fun c -> c :: partial) choices)
                    acc)
                [ [] ] kid_choices
            in
            let result =
              List.map (fun rev_kids -> { path; kids = List.rev rev_kids }) product
            in
            budget (List.length result);
            result
          end)
        candidates
  in
  inst Path.epsilon pattern
