module Schema = Xschema.Schema
module T = Xmlcore.Xml_tree

type params = { l : int; f : int; a : int; i : int; p : int }

let name { l; f; a; i; p } = Printf.sprintf "L%dF%dA%dI%dP%d" l f a i p

let parse_name s =
  try Scanf.sscanf s "L%dF%dA%dI%dP%d" (fun l f a i p -> { l; f; a; i; p })
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    invalid_arg ("Synthetic.parse_name: " ^ s)

(* Plausible value-domain sizes: a handful of enumerations (think US
   states) up to hash ranges (Section 5.2 discusses 1/55 and 1/1000). *)
let domain_sizes = [| 10; 25; 55; 100; 250; 1000 |]

let schema ?(seed = 7) params =
  if params.l < 1 then invalid_arg "Synthetic.schema: height must be >= 1";
  let rng = Random.State.make [| seed; params.l; params.f; params.a; params.i; params.p |] in
  let tag_counter = ref 0 in
  let fresh_tag () =
    incr tag_counter;
    Printf.sprintf "e%d" !tag_counter
  in
  let occurrence () =
    let lo = float_of_int params.p /. 100.0 in
    lo +. Random.State.float rng (1.0 -. lo)
  in
  let pick_domain () = domain_sizes.(Random.State.int rng (Array.length domain_sizes)) in
  let rec gen_element depth =
    let tag = fresh_tag () in
    let exist = occurrence () in
    if depth >= params.l then
      (* Leaf level: give it a value so queries have something to test. *)
      Schema.node ~exist ~value:(Schema.uniform_values (pick_domain ())) tag []
    else begin
      (* Internal schema nodes use the full fanout F; the occurrence
         probabilities (step two) thin the actual documents out.  This
         keeps average sequence lengths in the paper's range (~25 for
         L3F5A25P40). *)
      let fanout = params.f in
      let children = ref [] in
      for _slot = 1 to fanout do
        let child =
          if Random.State.int rng 100 < params.a then
            (* A value child: a leaf element carrying a value. *)
            Schema.node ~exist:(occurrence ())
              ~value:(Schema.uniform_values (pick_domain ()))
              (fresh_tag ()) []
          else gen_element (depth + 1)
        in
        children := child :: !children
      done;
      let children = List.rev !children in
      (* Identical siblings: rename a child (beyond the first) to a random
         earlier sibling's tag with probability I%. *)
      let children =
        List.mapi
          (fun k (c : Schema.t) ->
            if k > 0 && Random.State.int rng 100 < params.i then begin
              let earlier = List.nth children (Random.State.int rng k) in
              { c with tag = earlier.Schema.tag }
            end
            else c)
          children
      in
      Schema.node ~exist tag children
    end
  in
  let root = gen_element 1 in
  { root with exist = 1.0 }

let gen_doc rng (schema : Schema.t) =
  let rec gen (s : Schema.t) =
    let value_leaf =
      match s.value with
      | None -> []
      | Some v ->
        let idx =
          if v.known <> [] then begin
            (* weighted choice over known values, uniform fallback *)
            let u = Random.State.float rng 1.0 in
            let rec pick acc = function
              | (text, p) :: rest ->
                let acc = acc +. p in
                if u < acc then Some text else pick acc rest
              | [] -> None
            in
            match pick 0.0 v.known with
            | Some text -> `Text text
            | None -> `Index (Random.State.int rng (max 1 v.cardinality))
          end
          else `Index (Random.State.int rng (max 1 v.cardinality))
        in
        (match idx with
         | `Text text -> [ T.Value text ]
         | `Index k -> [ T.Value (Printf.sprintf "%s_v%d" s.tag k) ])
    in
    let kids =
      List.filter_map
        (fun (c : Schema.t) ->
          if Random.State.float rng 1.0 < c.exist then Some (gen c) else None)
        s.children
    in
    T.Element (s.tag, value_leaf @ kids)
  in
  gen schema

let generate ?(seed = 11) ~schema n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ -> gen_doc rng schema)

let dataset ?(schema_seed = 7) ?(data_seed = 11) params n =
  let s = schema ~seed:schema_seed params in
  generate ~seed:data_seed ~schema:s n
