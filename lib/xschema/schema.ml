module Symtab = Sequencing.Symtab
module D = Symtab.Designator
module Path = Symtab.Path

type t = {
  tag : string;
  exist : float;
  weight : float;
  value : value option;
  children : t list;
}

and value = { cardinality : int; known : (string * float) list }

let node ?(exist = 1.0) ?(weight = 1.0) ?value tag children =
  { tag; exist; weight; value; children }

let uniform_values k = { cardinality = k; known = [] }

let rec collect symbols parent_path parent_p acc s =
  let path = Path.child symbols parent_path (D.tag symbols s.tag) in
  let p = parent_p *. s.exist in
  let acc = (path, p) :: acc in
  let acc =
    match s.value with
    | None -> acc
    | Some v ->
      List.fold_left
        (fun acc (text, pv) ->
          (Path.child symbols path (D.value symbols text), p *. pv) :: acc)
        acc v.known
  in
  List.fold_left (collect symbols path p) acc s.children

let p_root s symbols = List.rev (collect symbols Path.epsilon 1.0 [] s)

(* Priority table over the schema's own symbol table: weighted
   probabilities for schema paths, plus the per-slot fallback
   probability for anonymous domain values. *)
type tables = {
  own : Symtab.t;
  prio : (Path.t, float) Hashtbl.t;
  value_slot : (Path.t, float) Hashtbl.t; (* parent path -> prio of one anon value *)
}

let rec fill tables parent_path parent_p s =
  let own = tables.own in
  let path = Path.child own parent_path (D.tag own s.tag) in
  let p = parent_p *. s.exist in
  Hashtbl.replace tables.prio path (p *. s.weight);
  (match s.value with
   | None -> ()
   | Some v ->
     List.iter
       (fun (text, pv) ->
         Hashtbl.replace tables.prio
           (Path.child own path (D.value own text))
           (p *. pv *. s.weight))
       v.known;
     let anon = p /. float_of_int (max 1 v.cardinality) in
     Hashtbl.replace tables.value_slot path (anon *. s.weight));
  List.iter (fill tables path p) s.children

let tables_of s =
  let tables =
    {
      own = Symtab.create ();
      prio = Hashtbl.create 256;
      value_slot = Hashtbl.create 64;
    }
  in
  fill tables Path.epsilon 1.0 s;
  tables

(* A path of [symbols] is priced by its names: [resolve] walks it from
   the root through the schema's own table, so the price depends on
   nothing but the spelling.  Pricing only reads, so it is safe from any
   number of domains. *)
let to_priority s symbols =
  let { own; prio; value_slot } = tables_of s in
  let rec resolve p =
    if Path.equal p Path.epsilon then (Some Path.epsilon, 1.0)
    else begin
      let parent, parent_prio = resolve (Path.parent symbols p) in
      let d = Path.tag symbols p in
      let is_value = D.is_value symbols d in
      let find = if is_value then D.find_value else D.find_tag in
      let mine =
        Option.bind parent (fun q ->
            Option.bind (find own (D.name symbols d)) (Path.find_child own q))
      in
      let price =
        match Option.bind mine (Hashtbl.find_opt prio) with
        | Some price -> price
        | None ->
          (match Option.bind parent (Hashtbl.find_opt value_slot) with
           | Some anon when is_value -> anon
           | _ -> parent_prio *. 0.1)
      in
      (mine, price)
    end
  in
  fun p -> snd (resolve p)

let strategy s symbols = Sequencing.Strategy.Probability (to_priority s symbols)
