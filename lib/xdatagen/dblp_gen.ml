module T = Xmlcore.Xml_tree

let author_pool_size = 2000

(* Author names are "First Last" over the dictionaries, with a stable
   Zipf skew: a few very prolific authors, a long tail.  Index 0 is the
   paper's favourite, "David Maier"-adjacent: we pin a couple of names so
   Table 8's queries ("author David...", book key "Maier") always hit. *)
let author_name k =
  match k with
  | 0 -> "David Maier"
  | 1 -> "David DeWitt"
  | 2 -> "David Johnson"
  | _ ->
    let f = Names.first_names.(k * 7919 mod Array.length Names.first_names) in
    let l = Names.last_names.(k * 104729 mod Array.length Names.last_names) in
    Printf.sprintf "%s %s" f l

let title rng =
  let n = 3 + Random.State.int rng 6 in
  String.concat " " (List.init n (fun _ -> Names.pick rng Names.words))

let authors rng =
  let n = 1 + Names.zipf_index rng ~s:1.6 4 in
  List.init n (fun _ -> author_name (Names.zipf_index rng ~s:1.05 author_pool_size))

let year rng = string_of_int (1970 + Random.State.int rng 36)
let pages rng =
  let first = 1 + Random.State.int rng 800 in
  Printf.sprintf "%d-%d" first (first + 8 + Random.State.int rng 30)

let field name value = T.elt name [ T.text value ]

let record rng id =
  let kind = Random.State.int rng 100 in
  let auth = authors rng in
  let author_elts = List.map (fun a -> field "author" a) auth in
  let last_name a =
    match String.rindex_opt a ' ' with
    | Some i -> String.sub a (i + 1) (String.length a - i - 1)
    | None -> a
  in
  let key_of venue =
    Printf.sprintf "%s/%s%d"
      (String.lowercase_ascii venue)
      (last_name (List.hd auth))
      id
  in
  if kind < 55 then begin
    let venue = Names.pick_zipf rng ~s:0.9 Names.conferences in
    T.elt "inproceedings"
      (field "key" (key_of venue)
       :: author_elts
      @ [
          field "title" (title rng);
          field "booktitle" venue;
          field "year" (year rng);
          field "pages" (pages rng);
        ])
  end
  else if kind < 90 then begin
    let venue = Names.pick_zipf rng ~s:0.9 Names.journals in
    T.elt "article"
      (field "key" (key_of venue)
       :: author_elts
      @ [
          field "title" (title rng);
          field "journal" venue;
          field "volume" (string_of_int (1 + Random.State.int rng 40));
          field "year" (year rng);
          field "pages" (pages rng);
        ])
  end
  else if kind < 97 then
    T.elt "book"
      (field "key" (key_of "books")
       :: author_elts
      @ [
          field "title" (title rng);
          field "publisher" (Names.pick rng [| "Morgan Kaufmann"; "Springer"; "Addison-Wesley"; "Prentice Hall"; "MIT Press" |]);
          field "year" (year rng);
          field "isbn" (Printf.sprintf "0-%05d-%03d-%d" (Random.State.int rng 99999) (Random.State.int rng 999) (Random.State.int rng 9));
        ])
  else
    T.elt "phdthesis"
      (field "key" (Printf.sprintf "phd/%s%d" (last_name (List.hd auth)) id)
       :: author_elts
      @ [
          field "title" (title rng);
          field "school" (Names.pick rng [| "MIT"; "Stanford"; "Berkeley"; "CMU"; "Wisconsin"; "UCSD" |]);
          field "year" (year rng);
        ])

(* A fraction of book records use the literal key "Maier" so that
   Table 8's Q2 (/book[key='Maier']/author) is answerable. *)
let record rng id =
  let r = record rng id in
  match r with
  | T.Element (("book" as d), T.Element ("key", _) :: rest)
    when Random.State.int rng 10 = 0 ->
    T.Element (d, field "key" "Maier" :: rest)
  | r -> r

let generate ?(seed = 23) n =
  let rng = Random.State.make [| seed; n |] in
  Array.init n (fun id -> record rng id)
