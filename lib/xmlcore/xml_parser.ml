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

(* Compared in place: the parser asks this at every markup boundary. *)
let looking_at state prefix =
  let n = String.length prefix and src = state.src and pos = state.pos in
  pos + n <= String.length src
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get src (pos + !i) = String.unsafe_get prefix !i do
    incr i
  done;
  !i = n

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

(* Advance past the run of characters that are neither [stop] nor '&';
   return where it started. *)
let skip_run state stop =
  let start = state.pos in
  while (not (eof state)) && peek state <> stop && peek state <> '&' do
    advance state
  done;
  start

let run_since state start = String.sub state.src start (state.pos - start)

(* Character data up to [stop] (exclusive) or the end of input: each
   run between references is one copy, and a [Buffer] is made only once
   a reference appears. *)
let parse_chars state stop =
  let start = skip_run state stop in
  if eof state || peek state = stop then run_since state start
  else begin
    let buf = Buffer.create (2 * (state.pos - start) + 16) in
    Buffer.add_substring buf state.src start (state.pos - start);
    while (not (eof state)) && peek state = '&' do
      parse_reference state buf;
      let start = skip_run state stop in
      Buffer.add_substring buf state.src start (state.pos - start)
    done;
    Buffer.contents buf
  end

let parse_attr_value state =
  let quote = peek state in
  if quote <> '"' && quote <> '\'' then fail state "expected a quoted value";
  advance state;
  let v = parse_chars state quote in
  if eof state then fail state "unterminated attribute value";
  advance state;
  v

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

let parse_cdata state =
  expect state "<![CDATA[";
  let start = state.pos in
  while not (looking_at state "]]>" || eof state) do
    advance state
  done;
  if eof state then fail state "unterminated CDATA section";
  let s = run_since state start in
  expect state "]]>";
  s

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
    (* The close tag is checked against [name] in place. *)
    let after = state.pos + String.length name in
    if
      looking_at state name
      && (after >= String.length state.src
         || not (is_name_char state.src.[after]))
    then state.pos <- after
    else begin
      let close = parse_name state in
      fail state
        (Printf.sprintf "mismatched close tag </%s> for <%s>" close name)
    end;
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
  else if looking_at state "<![CDATA[" then
    parse_content ~keep_whitespace state
      (Xml_tree.Value (parse_cdata state) :: acc)
  else if looking_at state "<?" then begin
    skip_pi state;
    parse_content ~keep_whitespace state acc
  end
  else if peek state = '<' then
    parse_content ~keep_whitespace state
      (parse_element ~keep_whitespace state :: acc)
  else begin
    let s = parse_chars state '<' in
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
