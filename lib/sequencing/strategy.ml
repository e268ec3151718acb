type t =
  | Depth_first
  | Breadth_first
  | Random of int
  | Probability of (Symtab.Path.t -> float)

let name = function
  | Depth_first -> "depth-first"
  | Breadth_first -> "breadth-first"
  | Random _ -> "random"
  | Probability _ -> "probability"
