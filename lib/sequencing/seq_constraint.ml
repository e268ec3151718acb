module Path = Symtab.Path

type kind = F1 | F2

let forward_prefix symbols seq i =
  let p = seq.(i) in
  if Path.depth symbols p <= 1 then None
  else begin
    let target = Path.parent symbols p in
    let rec scan j =
      if j < 0 then None
      else if Path.equal seq.(j) target then Some j
      else scan (j - 1)
    in
    scan (i - 1)
  end

let is_valid symbols seq =
  Array.length seq > 0
  && Path.depth symbols seq.(0) = 1
  &&
  let ok = ref true in
  for i = 1 to Array.length seq - 1 do
    if !ok then
      match forward_prefix symbols seq i with
      | Some _ -> ()
      | None -> ok := false
  done;
  !ok

(* Forward prefix of [j] at an arbitrary ancestor depth: the nearest
   preceding occurrence of the depth-[d] prefix of [seq.(j)]. *)
let forward_prefix_at symbols seq j d =
  let target = Path.ancestor_at_depth symbols seq.(j) d in
  let rec scan i =
    if i < 0 then None
    else if Path.equal seq.(i) target then Some i
    else scan (i - 1)
  in
  scan (j - 1)

let holds symbols kind seq i j =
  match kind with
  | F1 -> Path.is_strict_prefix symbols seq.(i) seq.(j)
  | F2 ->
    Path.is_strict_prefix symbols seq.(i) seq.(j)
    && forward_prefix_at symbols seq j (Path.depth symbols seq.(i)) = Some i
