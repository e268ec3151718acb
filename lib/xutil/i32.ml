type t = Bytes.t

(* The checked primitives: an offset whose four bytes leave the buffer
   raises Invalid_argument. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let min_value = -0x8000_0000
let max_value = 0x7fff_ffff
let fits x = x >= min_value && x <= max_value
let length v = Bytes.length v / 4
let get v i = Int32.to_int (get32 v (4 * i))

let set v i x =
  if not (fits x) then
    invalid_arg (Printf.sprintf "I32.set: %d does not fit in 32 bits" x);
  set32 v (4 * i) (Int32.of_int x)

let fill v lo hi x =
  for i = lo to hi - 1 do
    set v i x
  done

let make n x =
  if n < 0 then invalid_arg "I32.make: negative length";
  let v = Bytes.create (4 * n) in
  fill v 0 n x;
  v

let extend v n x =
  let len = length v in
  if n < len then invalid_arg "I32.extend: shorter than the vector";
  let v' = Bytes.extend v 0 (4 * (n - len)) in
  fill v' len n x;
  v'

let sub v pos len = Bytes.sub v (4 * pos) (4 * len)
let blit src spos dst dpos len = Bytes.blit src (4 * spos) dst (4 * dpos) (4 * len)

let of_array a =
  let v = Bytes.create (4 * Array.length a) in
  Array.iteri (set v) a;
  v

let to_array v = Array.init (length v) (get v)
