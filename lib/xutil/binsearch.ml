(* The int annotations make the comparisons integer ones, not the
   polymorphic compare. *)
let lower_bound (a : int array) ~len (x : int) =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound (a : int array) ~len (x : int) =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let floor_index a ~len x = upper_bound a ~len x - 1

(* Accessor-generic variants: the same searches over any indexed int
   source (flat buffers, paged columns) instead of a heap array. *)

let lower_bound_by ~get ~len (x : int) =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_by ~get ~len (x : int) =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if get mid <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let floor_index_by ~get ~len x = upper_bound_by ~get ~len x - 1
