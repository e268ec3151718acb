type t = {
  p_name : string;
  p_count : int;
  p_block : int;
  p_nblocks : int;
  p_data_len : int;
  p_offsets : int array; (* start of each block in the delta stream *)
  p_firsts : int array;
  p_data_off : int; (* where the delta stream starts in the region *)
}

let default_block = 128
let max_block = 1 lsl 20
let header_fixed = 16

let fail name fmt =
  Printf.ksprintf (fun s -> invalid_arg (name ^ ": " ^ s)) fmt

(* Little-endian fixed-width helpers over strings. *)
let get_u32 name s off =
  if off < 0 || off + 4 > String.length s then
    fail name "u32 read at %d out of bounds" off;
  let b i = Char.code (String.unsafe_get s (off + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let get_i64 name s off =
  if off < 0 || off + 8 > String.length s then
    fail name "i64 read at %d out of bounds" off;
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get s (off + i))
  done;
  !v

let encoder ?(block = default_block) ~count get =
  if block < 1 || block > max_block then
    invalid_arg
      (Printf.sprintf "Packed.encode: block size %d outside [1, %d]" block
         max_block);
  if count > 0xFFFF_FFFF then
    invalid_arg "Packed.encode: column too large for u32 header fields";
  let nblocks = (count + block - 1) / block in
  (* Sizing pass: block offsets and firsts, and the delta stream's
     length.  Subtraction wraps mod the int width; decode re-wraps, so
     the round trip is exact even across min_int/max_int spans. *)
  let offsets = Array.make nblocks 0 in
  let firsts = Array.make nblocks 0 in
  let data_len = ref 0 in
  for b = 0 to nblocks - 1 do
    let lo = b * block in
    let hi = min count (lo + block) in
    offsets.(b) <- !data_len;
    let prev = ref (get lo) in
    firsts.(b) <- !prev;
    for i = lo + 1 to hi - 1 do
      let x = get i in
      data_len := !data_len + Varint.uvarint_size (Varint.zigzag (x - !prev));
      prev := x
    done
  done;
  let data_len = !data_len in
  if data_len > 0xFFFF_FFFF then
    invalid_arg "Packed.encode: delta stream too large for u32 header fields";
  let data_off = header_fixed + (12 * nblocks) in
  let write out off =
    let set_u32 at v = Bytes.set_int32_le out (off + at) (Int32.of_int v) in
    set_u32 0 count;
    set_u32 4 block;
    set_u32 8 nblocks;
    set_u32 12 data_len;
    Array.iteri (fun b o -> set_u32 (header_fixed + (4 * b)) o) offsets;
    (* A first is its 63-bit pattern, the top bit of the 8 bytes clear. *)
    Array.iteri
      (fun b f ->
        Bytes.set_int64_le out
          (off + header_fixed + (4 * nblocks) + (8 * b))
          (Int64.logand (Int64.of_int f) Int64.max_int))
      firsts;
    let pos = ref (off + data_off) in
    for b = 0 to nblocks - 1 do
      let lo = b * block in
      let hi = min count (lo + block) in
      for i = lo + 1 to hi - 1 do
        pos := Varint.set_uvarint out !pos (Varint.zigzag (get i - get (i - 1)))
      done
    done
  in
  (data_off + data_len, write)

let encode ?block xs =
  let size, write = encoder ?block ~count:(Array.length xs) (Array.get xs) in
  let out = Bytes.create size in
  write out 0;
  Bytes.unsafe_to_string out

let parse ~name ~fetch ~length =
  if length < header_fixed then
    fail name "serialized column of %d bytes is shorter than the %d-byte \
               header"
      length header_fixed;
  let hdr = fetch 0 header_fixed in
  if String.length hdr <> header_fixed then
    fail name "fetch returned %d bytes for the %d-byte header"
      (String.length hdr) header_fixed;
  let count = get_u32 name hdr 0 in
  let block = get_u32 name hdr 4 in
  let nblocks = get_u32 name hdr 8 in
  let data_len = get_u32 name hdr 12 in
  if block < 1 || block > max_block then
    fail name "block size %d outside [1, %d]" block max_block;
  if count < 0 then fail name "negative element count %d" count;
  let expect_nblocks = (count + block - 1) / block in
  if nblocks <> expect_nblocks then
    fail name "header claims %d blocks for %d elements of block size %d \
               (expected %d)"
      nblocks count block expect_nblocks;
  let data_off = header_fixed + (12 * nblocks) in
  if data_len < 0 || data_off + data_len <> length then
    fail name
      "header geometry (%d blocks, %d delta bytes) disagrees with the \
       stored length %d"
      nblocks data_len length;
  let tables =
    if nblocks = 0 then "" else fetch header_fixed (12 * nblocks)
  in
  if String.length tables <> 12 * nblocks then
    fail name "fetch returned %d bytes for the %d-byte tables"
      (String.length tables) (12 * nblocks);
  let offsets = Array.init nblocks (fun b -> get_u32 name tables (4 * b)) in
  let firsts =
    Array.init nblocks (fun b -> get_i64 name tables ((4 * nblocks) + (8 * b)))
  in
  Array.iteri
    (fun b o ->
      let next = if b + 1 < nblocks then offsets.(b + 1) else data_len in
      if o < 0 || o > data_len || next < o then
        fail name "block %d has byte range [%d, %d) outside the %d-byte \
                   delta stream"
          b o next data_len)
    offsets;
  {
    p_name = name;
    p_count = count;
    p_block = block;
    p_nblocks = nblocks;
    p_data_len = data_len;
    p_offsets = offsets;
    p_firsts = firsts;
    p_data_off = data_off;
  }

let count t = t.p_count
let block_size t = t.p_block
let nblocks t = t.p_nblocks

let first t b =
  if b < 0 || b >= t.p_nblocks then
    fail t.p_name "skip-table index %d outside [0, %d)" b t.p_nblocks;
  t.p_firsts.(b)

let block_span t b =
  if b < 0 || b >= t.p_nblocks then
    fail t.p_name "block %d outside [0, %d)" b t.p_nblocks;
  let off = t.p_offsets.(b) in
  let next = if b + 1 < t.p_nblocks then t.p_offsets.(b + 1) else t.p_data_len in
  (t.p_data_off + off, next - off)

(* Block [b]'s elements from its [len] delta bytes at [off] of [s]. *)
let decode_bytes t b s off len set =
  let lo = b * t.p_block in
  let n = min t.p_block (t.p_count - lo) in
  let x = ref t.p_firsts.(b) in
  set lo !x;
  let pos = ref off in
  for i = 1 to n - 1 do
    x :=
      !x
      + Varint.unzigzag
          (Varint.uvarint ~name:t.p_name s ~pos ~limit:(off + len));
    set (lo + i) !x
  done;
  if !pos <> off + len then
    fail t.p_name "block %d has %d trailing delta bytes" b (off + len - !pos)

let decode_into t ~fetch b set =
  let at, len = block_span t b in
  let s = if len = 0 then "" else fetch at len in
  if String.length s <> len then
    fail t.p_name "fetch returned %d bytes for block %d's %d-byte range"
      (String.length s) b len;
  decode_bytes t b s 0 len set

let decode_span t b s dst =
  let _, len = block_span t b in
  if String.length s < len then
    fail t.p_name "%d bytes held for block %d's %d-byte range"
      (String.length s) b len;
  let lo = b * t.p_block in
  decode_bytes t b s 0 len (fun i x -> dst.(i - lo) <- x)

let decode_block t ~fetch b =
  if b < 0 || b >= t.p_nblocks then
    fail t.p_name "block %d outside [0, %d)" b t.p_nblocks;
  let lo = b * t.p_block in
  let out = Array.make (min t.p_block (t.p_count - lo)) 0 in
  decode_into t ~fetch b (fun i x -> out.(i - lo) <- x);
  out

let decode_all t ~fetch =
  let out = Array.make t.p_count 0 in
  for b = 0 to t.p_nblocks - 1 do
    decode_into t ~fetch b (Array.unsafe_set out)
  done;
  out
