
type axis = Child | Descendant
type test = Tag of string | Star | Text of string | Text_prefix of string
type t = { test : test; axis : axis; children : t list }

let elt ?(axis = Child) name children = { test = Tag name; axis; children }
let star ?(axis = Child) children = { test = Star; axis; children }
let text ?(axis = Child) s = { test = Text s; axis; children = [] }
let text_prefix ?(axis = Child) s = { test = Text_prefix s; axis; children = [] }

let rec size p = List.fold_left (fun n c -> n + size c) 1 p.children

let test_equal a b =
  match a, b with
  | Tag x, Tag y -> String.equal x y
  | Star, Star -> true
  | Text x, Text y -> String.equal x y
  | Text_prefix x, Text_prefix y -> String.equal x y
  | (Tag _ | Star | Text _ | Text_prefix _), _ -> false

let rec has_identical_siblings p =
  let rec dup = function
    | c :: rest -> List.exists (fun c' -> test_equal c.test c'.test) rest || dup rest
    | [] -> false
  in
  dup p.children || List.exists has_identical_siblings p.children

let rec pp ppf p =
  (match p.axis with
   | Child -> Format.pp_print_string ppf "/"
   | Descendant -> Format.pp_print_string ppf "//");
  (match p.test with
   | Tag s -> Format.pp_print_string ppf s
   | Star -> Format.pp_print_string ppf "*"
   | Text s -> Format.fprintf ppf "text()=%S" s
   | Text_prefix s -> Format.fprintf ppf "starts-with(text(),%S)" s);
  match p.children with
  | [] -> ()
  | [ c ] -> pp ppf c
  | cs ->
    Format.pp_print_string ppf "[";
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "][")
      pp ppf cs;
    Format.pp_print_string ppf "]"

let to_string p = Format.asprintf "%a" pp p
