let escape buf ~attr s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when attr -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let escape_text s =
  let buf = Buffer.create (String.length s) in
  escape buf ~attr:false s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  escape buf ~attr:true s;
  Buffer.contents buf

let is_attr_child = function
  | Xml_tree.Element (n, [ Xml_tree.Value _ ]) ->
    String.length n > 0 && n.[0] = '@'
  | _ -> false

let split_attrs children =
  List.partition is_attr_child children

let to_string ?(indent = false) tree =
  let buf = Buffer.create 256 in
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec emit level t =
    match t with
    | Xml_tree.Value v ->
      pad level;
      escape buf ~attr:false v;
      nl ()
    | Xml_tree.Element (d, children) ->
      let attrs, rest = split_attrs children in
      pad level;
      Buffer.add_char buf '<';
      Buffer.add_string buf d;
      List.iter
        (fun a ->
          match a with
          | Xml_tree.Element (n, [ Xml_tree.Value v ]) ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (String.sub n 1 (String.length n - 1));
            Buffer.add_string buf "=\"";
            escape buf ~attr:true v;
            Buffer.add_char buf '"'
          | _ -> assert false)
        attrs;
      (match rest with
       | [] ->
         Buffer.add_string buf "/>";
         nl ()
       | [ Xml_tree.Value v ] when not indent ->
         Buffer.add_char buf '>';
         escape buf ~attr:false v;
         Buffer.add_string buf "</";
         Buffer.add_string buf d;
         Buffer.add_char buf '>'
       | rest ->
         Buffer.add_char buf '>';
         nl ();
         List.iter (emit (level + 1)) rest;
         pad level;
         Buffer.add_string buf "</";
         Buffer.add_string buf d;
         Buffer.add_char buf '>';
         nl ())
  in
  emit 0 tree;
  Buffer.contents buf
