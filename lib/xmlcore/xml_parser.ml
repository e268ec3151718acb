exception Parse_error of { pos : int; line : int; msg : string }

type state = { src : string; mutable pos : int }

let line_of state pos =
  let line = ref 1 in
  for i = 0 to min (pos - 1) (String.length state.src - 1) do
    if state.src.[i] = '\n' then incr line
  done;
  !line

let fail state msg =
  raise (Parse_error { pos = state.pos; line = line_of state state.pos; msg })

let eof state = state.pos >= String.length state.src
let peek state = state.src.[state.pos]
let advance state = state.pos <- state.pos + 1

let looking_at state prefix =
  let n = String.length prefix in
  state.pos + n <= String.length state.src
  && String.sub state.src state.pos n = prefix

let expect state prefix =
  if looking_at state prefix then state.pos <- state.pos + String.length prefix
  else fail state (Printf.sprintf "expected %S" prefix)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_spaces state =
  while (not (eof state)) && is_space (peek state) do
    advance state
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name state =
  if eof state || not (is_name_start (peek state)) then
    fail state "expected a name";
  let start = state.pos in
  while (not (eof state)) && is_name_char (peek state) do
    advance state
  done;
  String.sub state.src start (state.pos - start)

(* Decode a character or entity reference starting at '&'. *)
let parse_reference state buf =
  expect state "&";
  let start = state.pos in
  while (not (eof state)) && peek state <> ';' do
    advance state
  done;
  if eof state then fail state "unterminated entity reference";
  let ent = String.sub state.src start (state.pos - start) in
  advance state;
  match ent with
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "amp" -> Buffer.add_char buf '&'
  | "apos" -> Buffer.add_char buf '\''
  | "quot" -> Buffer.add_char buf '"'
  | _ ->
    let num =
      if String.length ent > 2 && ent.[0] = '#' && (ent.[1] = 'x' || ent.[1] = 'X')
      then int_of_string_opt ("0x" ^ String.sub ent 2 (String.length ent - 2))
      else if String.length ent > 1 && ent.[0] = '#' then
        int_of_string_opt (String.sub ent 1 (String.length ent - 1))
      else None
    in
    (match num with
     | Some n when n >= 0 && n < 128 -> Buffer.add_char buf (Char.chr n)
     | Some n ->
       (* Encode the code point as UTF-8. *)
       if n < 0x800 then begin
         Buffer.add_char buf (Char.chr (0xC0 lor (n lsr 6)));
         Buffer.add_char buf (Char.chr (0x80 lor (n land 0x3F)))
       end
       else if n < 0x10000 then begin
         Buffer.add_char buf (Char.chr (0xE0 lor (n lsr 12)));
         Buffer.add_char buf (Char.chr (0x80 lor ((n lsr 6) land 0x3F)));
         Buffer.add_char buf (Char.chr (0x80 lor (n land 0x3F)))
       end
       else begin
         Buffer.add_char buf (Char.chr (0xF0 lor (n lsr 18)));
         Buffer.add_char buf (Char.chr (0x80 lor ((n lsr 12) land 0x3F)));
         Buffer.add_char buf (Char.chr (0x80 lor ((n lsr 6) land 0x3F)));
         Buffer.add_char buf (Char.chr (0x80 lor (n land 0x3F)))
       end
     | None -> fail state (Printf.sprintf "unknown entity &%s;" ent))

let parse_attr_value state =
  let quote = peek state in
  if quote <> '"' && quote <> '\'' then fail state "expected a quoted value";
  advance state;
  let buf = Buffer.create 16 in
  let rec loop () =
    if eof state then fail state "unterminated attribute value"
    else if peek state = quote then advance state
    else if peek state = '&' then begin
      parse_reference state buf;
      loop ()
    end
    else begin
      Buffer.add_char buf (peek state);
      advance state;
      loop ()
    end
  in
  loop ();
  Buffer.contents buf

let skip_comment state =
  expect state "<!--";
  let rec loop () =
    if looking_at state "-->" then expect state "-->"
    else if eof state then fail state "unterminated comment"
    else begin
      advance state;
      loop ()
    end
  in
  loop ()

let skip_pi state =
  expect state "<?";
  let rec loop () =
    if looking_at state "?>" then expect state "?>"
    else if eof state then fail state "unterminated processing instruction"
    else begin
      advance state;
      loop ()
    end
  in
  loop ()

let skip_doctype state =
  expect state "<!DOCTYPE";
  (* Skip to the matching '>' allowing one level of bracketed subset. *)
  let depth = ref 0 in
  let rec loop () =
    if eof state then fail state "unterminated DOCTYPE"
    else
      match peek state with
      | '[' ->
        incr depth;
        advance state;
        loop ()
      | ']' ->
        decr depth;
        advance state;
        loop ()
      | '>' when !depth = 0 -> advance state
      | _ ->
        advance state;
        loop ()
  in
  loop ()

let parse_cdata state buf =
  expect state "<![CDATA[";
  let rec loop () =
    if looking_at state "]]>" then expect state "]]>"
    else if eof state then fail state "unterminated CDATA section"
    else begin
      Buffer.add_char buf (peek state);
      advance state;
      loop ()
    end
  in
  loop ()

let is_blank s = String.for_all is_space s

let rec skip_misc state =
  skip_spaces state;
  if looking_at state "<!--" then begin
    skip_comment state;
    skip_misc state
  end
  else if looking_at state "<?" then begin
    skip_pi state;
    skip_misc state
  end
  else if looking_at state "<!DOCTYPE" then begin
    skip_doctype state;
    skip_misc state
  end

let rec parse_element ~keep_whitespace state =
  expect state "<";
  let name = parse_name state in
  let attrs = parse_attributes state [] in
  if looking_at state "/>" then begin
    expect state "/>";
    Xml_tree.Element (name, List.rev attrs)
  end
  else begin
    expect state ">";
    let children = parse_content ~keep_whitespace state [] in
    expect state "</";
    let close = parse_name state in
    if not (String.equal close name) then
      fail state (Printf.sprintf "mismatched close tag </%s> for <%s>" close name);
    skip_spaces state;
    expect state ">";
    Xml_tree.Element (name, attrs @ children)
  end

and parse_attributes state acc =
  skip_spaces state;
  if eof state then fail state "unterminated start tag"
  else if peek state = '>' || looking_at state "/>" then List.rev acc
  else begin
    let name = parse_name state in
    skip_spaces state;
    expect state "=";
    skip_spaces state;
    let v = parse_attr_value state in
    parse_attributes state (Xml_tree.attr name v :: acc)
  end

and parse_content ~keep_whitespace state acc =
  if eof state then fail state "unterminated element content"
  else if looking_at state "</" then List.rev acc
  else if looking_at state "<!--" then begin
    skip_comment state;
    parse_content ~keep_whitespace state acc
  end
  else if looking_at state "<![CDATA[" then begin
    let buf = Buffer.create 16 in
    parse_cdata state buf;
    parse_content ~keep_whitespace state (Xml_tree.Value (Buffer.contents buf) :: acc)
  end
  else if looking_at state "<?" then begin
    skip_pi state;
    parse_content ~keep_whitespace state acc
  end
  else if peek state = '<' then
    parse_content ~keep_whitespace state
      (parse_element ~keep_whitespace state :: acc)
  else begin
    let buf = Buffer.create 16 in
    let rec text_loop () =
      if eof state || peek state = '<' then ()
      else if peek state = '&' then begin
        parse_reference state buf;
        text_loop ()
      end
      else begin
        Buffer.add_char buf (peek state);
        advance state;
        text_loop ()
      end
    in
    text_loop ();
    let s = Buffer.contents buf in
    if (not keep_whitespace) && is_blank s then
      parse_content ~keep_whitespace state acc
    else parse_content ~keep_whitespace state (Xml_tree.Value s :: acc)
  end

let parse_string ?(keep_whitespace = false) src =
  let state = { src; pos = 0 } in
  skip_misc state;
  if eof state || peek state <> '<' then fail state "expected a root element";
  let root = parse_element ~keep_whitespace state in
  skip_misc state;
  if not (eof state) then fail state "trailing content after root element";
  root

let parse_fragments ?(keep_whitespace = false) src =
  let state = { src; pos = 0 } in
  let rec loop acc =
    skip_misc state;
    if eof state then List.rev acc
    else if peek state = '<' then
      loop (parse_element ~keep_whitespace state :: acc)
    else fail state "expected an element"
  in
  loop []
