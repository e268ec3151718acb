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

(* [Varint]'s helpers, here so the per-element loops below make no
   cross-module call. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor -(u land 1)

let uvarint_size v =
  if v lsr 7 = 0 then 1 else if v lsr 14 = 0 then 2 else Varint.uvarint_size v

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
      data_len := !data_len + uvarint_size (zigzag (x - !prev));
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
      let prev = ref firsts.(b) in
      for i = lo + 1 to hi - 1 do
        let x = get i in
        pos := Varint.set_uvarint out !pos (zigzag (x - !prev));
        prev := x
      done
    done
  in
  (data_off + data_len, write)

let encode ?block xs =
  let size, write = encoder ?block ~count:(Array.length xs) (Array.get xs) in
  let out = Bytes.create size in
  write out 0;
  Bytes.unsafe_to_string out

let check_length name length =
  if length < header_fixed then
    fail name "serialized column of %d bytes is shorter than the %d-byte \
               header"
      length header_fixed

(* The header's fields against each other and the stored length; the
   tables' offset. *)
let check_header name ~length ~count ~block ~nblocks ~data_len =
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
  data_off

(* Every block's byte range, [offset b] to the next block's start, lies
   in the delta stream. *)
let check_offsets name ~nblocks ~data_len offset =
  for b = 0 to nblocks - 1 do
    let o = offset b in
    let next = if b + 1 < nblocks then offset (b + 1) else data_len in
    if o < 0 || o > data_len || next < o then
      fail name "block %d has byte range [%d, %d) outside the %d-byte \
                 delta stream"
        b o next data_len
  done

let parse ~name ~fetch ~length =
  check_length name length;
  let hdr = fetch 0 header_fixed in
  if String.length hdr <> header_fixed then
    fail name "fetch returned %d bytes for the %d-byte header"
      (String.length hdr) header_fixed;
  let count = get_u32 name hdr 0 in
  let block = get_u32 name hdr 4 in
  let nblocks = get_u32 name hdr 8 in
  let data_len = get_u32 name hdr 12 in
  let data_off =
    check_header name ~length ~count ~block ~nblocks ~data_len
  in
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
  check_offsets name ~nblocks ~data_len (Array.get offsets);
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
      + unzigzag
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

(* --- incremental decoding ------------------------------------------------- *)

(* The serialized form handed over in pieces, front to back.  The header
   and tables are copied into [d_head] (sized once the 16 header bytes
   are in); each delta is decoded as its last byte arrives, a varint cut
   by a piece boundary carried over in [d_v]/[d_shift]. *)
type decoder = {
  d_name : string;
  d_length : int;
  d_count : int;
  d_set : int -> int -> unit;
  mutable d_head : Bytes.t;
  mutable d_pos : int; (* bytes of the serialized form taken *)
  mutable d_block : int;
  mutable d_nblocks : int;
  mutable d_data_len : int;
  mutable d_data_off : int; (* -1 until the header is in *)
  mutable d_b : int; (* the block being decoded; d_nblocks once done *)
  mutable d_i : int; (* column index of its next element *)
  mutable d_hi : int; (* one past its last element *)
  mutable d_start : int; (* serialized offsets of its delta bytes *)
  mutable d_stop : int;
  mutable d_x : int; (* the element before [d_i] *)
  mutable d_v : int;
  mutable d_shift : int;
}

let decoder ~name ~length ~count set =
  check_length name length;
  {
    d_name = name;
    d_length = length;
    d_count = count;
    d_set = set;
    d_head = Bytes.create header_fixed;
    d_pos = 0;
    d_block = 0;
    d_nblocks = 0;
    d_data_len = 0;
    d_data_off = -1;
    d_b = 0;
    d_i = 0;
    d_hi = 0;
    d_start = 0;
    d_stop = 0;
    d_x = 0;
    d_v = 0;
    d_shift = 0;
  }

let head_u32 d at = Int32.to_int (Bytes.get_int32_le d.d_head at) land 0xFFFF_FFFF
let head_offset d b = head_u32 d (header_fixed + (4 * b))

(* End of block [b]'s delta bytes, relative to the delta stream. *)
let head_next d b =
  if b + 1 < d.d_nblocks then head_offset d (b + 1) else d.d_data_len

(* The header is in: the checks [parse] makes, then room for the
   tables. *)
let take_header d =
  let name = d.d_name in
  let count = head_u32 d 0 and block = head_u32 d 4 in
  let nblocks = head_u32 d 8 and data_len = head_u32 d 12 in
  if count <> d.d_count then
    fail name "header claims %d elements, %d expected" count d.d_count;
  let data_off =
    check_header name ~length:d.d_length ~count ~block ~nblocks ~data_len
  in
  d.d_block <- block;
  d.d_nblocks <- nblocks;
  d.d_data_len <- data_len;
  d.d_data_off <- data_off;
  let head = Bytes.create data_off in
  Bytes.blit d.d_head 0 head 0 header_fixed;
  d.d_head <- head

(* Block [b] starts: its first element comes from the skip table.  A
   block whose elements are all handed out ends at once, and the next
   one starts. *)
let rec start_block d b =
  d.d_b <- b;
  if b < d.d_nblocks then begin
    let lo = b * d.d_block in
    let x =
      Int64.to_int
        (Bytes.get_int64_le d.d_head (header_fixed + (4 * d.d_nblocks) + (8 * b)))
    in
    d.d_x <- x;
    d.d_set lo x;
    d.d_i <- lo + 1;
    d.d_hi <- min d.d_count (lo + d.d_block);
    d.d_start <- d.d_data_off + head_offset d b;
    d.d_stop <- d.d_data_off + head_next d b;
    if d.d_i = d.d_hi then end_block d
  end

and end_block d =
  if d.d_pos < d.d_start then ()
  else begin
    if d.d_pos <> d.d_stop then
      fail d.d_name "block %d has %d trailing delta bytes" d.d_b
        (d.d_stop - d.d_pos);
    start_block d (d.d_b + 1)
  end

(* The tables are in: the offset checks [parse] makes, then block 0. *)
let take_tables d =
  check_offsets d.d_name ~nblocks:d.d_nblocks ~data_len:d.d_data_len
    (head_offset d);
  start_block d 0

(* Delta bytes [off, off + len) of [buf], decoded in runs that stay
   inside one block's bytes, the state in locals. *)
let take_deltas d buf off len =
  let k = ref off and last = off + len in
  while !k < last do
    if d.d_b >= d.d_nblocks then
      fail d.d_name "%d delta bytes past the last block" (last - !k);
    if d.d_pos < d.d_start then begin
      (* Bytes before block 0's range are not part of any block. *)
      let n = min (last - !k) (d.d_start - d.d_pos) in
      d.d_pos <- d.d_pos + n;
      k := !k + n;
      if d.d_pos = d.d_start && d.d_i = d.d_hi then end_block d
    end
    else begin
      if d.d_pos >= d.d_stop then
        fail d.d_name "truncated varint at byte %d of block %d"
          (d.d_pos - d.d_start) d.d_b;
      let lim = min last (!k + (d.d_stop - d.d_pos)) in
      let p = ref !k and i = ref d.d_i and x = ref d.d_x in
      let v = ref d.d_v and shift = ref d.d_shift in
      let hi = d.d_hi and set = d.d_set in
      while !p < lim && !i < hi do
        if !shift > 56 then fail d.d_name "varint longer than 9 bytes";
        let c = Char.code (Bytes.unsafe_get buf !p) in
        incr p;
        v := !v lor ((c land 0x7f) lsl !shift);
        if c < 0x80 then begin
          x := !x + unzigzag !v;
          set !i !x;
          incr i;
          v := 0;
          shift := 0
        end
        else shift := !shift + 7
      done;
      d.d_pos <- d.d_pos + (!p - !k);
      k := !p;
      d.d_i <- !i;
      d.d_x <- !x;
      d.d_v <- !v;
      d.d_shift <- !shift;
      if !i = hi then end_block d
    end
  done

let rec feed d buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Packed.feed: range out of bounds";
  if d.d_pos + len > d.d_length then
    fail d.d_name "%d bytes fed to a %d-byte column" (d.d_pos + len) d.d_length;
  let head = Bytes.length d.d_head in
  if len > 0 then
    if d.d_pos < head then begin
      let n = min len (head - d.d_pos) in
      Bytes.blit buf off d.d_head d.d_pos n;
      d.d_pos <- d.d_pos + n;
      if d.d_pos = head then
        if d.d_data_off < 0 then begin
          take_header d;
          if d.d_data_off = header_fixed then take_tables d
        end
        else take_tables d;
      feed d buf (off + n) (len - n)
    end
    else take_deltas d buf off len

let finish d =
  if d.d_pos < d.d_length then
    fail d.d_name "%d of the column's %d bytes were fed" d.d_pos d.d_length;
  if d.d_b < d.d_nblocks then
    fail d.d_name "block %d is incomplete" d.d_b
