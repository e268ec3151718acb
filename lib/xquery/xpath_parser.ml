exception Syntax_error of { pos : int; msg : string }

type state = { src : string; mutable pos : int }

let fail state msg = raise (Syntax_error { pos = state.pos; msg })
let eof state = state.pos >= String.length state.src
let peek state = state.src.[state.pos]

let looking_at state prefix =
  let n = String.length prefix in
  state.pos + n <= String.length state.src
  && String.sub state.src state.pos n = prefix

let eat state prefix =
  if looking_at state prefix then state.pos <- state.pos + String.length prefix
  else fail state (Printf.sprintf "expected %S" prefix)

let skip_spaces state =
  while (not (eof state)) && peek state = ' ' do
    state.pos <- state.pos + 1
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = '@'

(* A step never starts with '.': the lexer takes dots as name characters
   (tags like [a.b] exist), so [.] and [..] would otherwise parse as
   tags that no record has, and answer nothing instead of failing. *)
let parse_name state =
  if (not (eof state)) && peek state = '.' then
    fail state "'.' and '..' steps are not supported";
  let start = state.pos in
  while (not (eof state)) && is_name_char (peek state) do
    state.pos <- state.pos + 1
  done;
  if state.pos = start then fail state "expected a name";
  String.sub state.src start (state.pos - start)

let parse_literal state =
  let quote = if eof state then fail state "expected a literal" else peek state in
  if quote <> '\'' && quote <> '"' then fail state "expected a quoted literal";
  state.pos <- state.pos + 1;
  let start = state.pos in
  while (not (eof state)) && peek state <> quote do
    state.pos <- state.pos + 1
  done;
  if eof state then fail state "unterminated literal";
  let s = String.sub state.src start (state.pos - start) in
  state.pos <- state.pos + 1;
  s

let parse_axis state =
  if looking_at state "//" then begin
    eat state "//";
    Pattern.Descendant
  end
  else begin
    eat state "/";
    Pattern.Child
  end

(* A relative path inside a predicate: returns a single-branch pattern
   chain; [finish] builds the innermost node. *)
let rec parse_relpath state axis finish =
  skip_spaces state;
  if looking_at state "text()" || looking_at state "text" then begin
    if looking_at state "text()" then eat state "text()" else eat state "text";
    skip_spaces state;
    if looking_at state "^=" then begin
      eat state "^=";
      skip_spaces state;
      Pattern.text_prefix ~axis (parse_literal state)
    end
    else begin
      eat state "=";
      skip_spaces state;
      Pattern.text ~axis (parse_literal state)
    end
  end
  else begin
    let test =
      if looking_at state "*" then begin
        eat state "*";
        Pattern.Star
      end
      else Pattern.Tag (parse_name state)
    in
    skip_spaces state;
    if looking_at state "//" || (looking_at state "/" && not (looking_at state "/=")) then begin
      let sub_axis = parse_axis state in
      let child = parse_relpath state sub_axis finish in
      { Pattern.test; axis; children = [ child ] }
    end
    else if looking_at state "^=" then begin
      eat state "^=";
      skip_spaces state;
      let v = parse_literal state in
      { Pattern.test; axis; children = [ Pattern.text_prefix v ] }
    end
    else if looking_at state "=" then begin
      eat state "=";
      skip_spaces state;
      let v = parse_literal state in
      { Pattern.test; axis; children = [ Pattern.text v ] }
    end
    else { Pattern.test; axis; children = finish () }
  end

let parse_predicates state =
  let rec loop acc =
    skip_spaces state;
    if not (eof state) && peek state = '[' then begin
      eat state "[";
      skip_spaces state;
      let axis =
        if looking_at state "//" then begin
          eat state "//";
          Pattern.Descendant
        end
        else if looking_at state "/" then begin
          eat state "/";
          Pattern.Child
        end
        else Pattern.Child
      in
      let p = parse_relpath state axis (fun () -> []) in
      skip_spaces state;
      eat state "]";
      loop (p :: acc)
    end
    else List.rev acc
  in
  loop []

(* Steps of the main path; the innermost step receives the accumulated
   predicates as children. *)
let rec parse_steps state axis =
  skip_spaces state;
  let test =
    if looking_at state "*" then begin
      eat state "*";
      Pattern.Star
    end
    else Pattern.Tag (parse_name state)
  in
  let preds = parse_predicates state in
  skip_spaces state;
  if not (eof state) && peek state = '/' then begin
    let sub_axis = parse_axis state in
    let child = parse_steps state sub_axis in
    { Pattern.test; axis; children = preds @ [ child ] }
  end
  else { Pattern.test; axis; children = preds }

let parse src =
  let state = { src; pos = 0 } in
  skip_spaces state;
  let axis = parse_axis state in
  let p = parse_steps state axis in
  skip_spaces state;
  if not (eof state) then fail state "trailing characters";
  p
