let fail name fmt =
  Printf.ksprintf (fun s -> invalid_arg (name ^ ": " ^ s)) fmt

module I32 = Xutil.I32

(* Element [i] through [I32]'s inline primitives. *)
let get v i = Int32.to_int (I32.get32 v (4 * i))
let set v i x = I32.set32 v (4 * i) (Int32.of_int x)

(* Each entry is coded against the one before it, both read in the
   blob, and the comparison that finds their shared prefix checks the
   order. *)
let encode blob off order =
  let count = I32.length order in
  let buf = Buffer.create (64 + (count * 8)) in
  Buffer.add_int32_le buf (Int32.of_int count);
  let prev = ref 0 and prev_len = ref 0 in
  for i = 0 to count - 1 do
    let start = get off (get order i) in
    let len = get off (get order i + 1) - start in
    let n = min len !prev_len and k = ref 0 in
    while !k < n && Bytes.get blob (!prev + !k) = Bytes.get blob (start + !k) do
      incr k
    done;
    if
      if !k < n then Bytes.get blob (!prev + !k) > Bytes.get blob (start + !k)
      else !prev_len > len
    then
      invalid_arg
        (Printf.sprintf
           "Frontcode.encode: input not sorted at entry %d (%S > %S)" i
           (Bytes.sub_string blob !prev !prev_len)
           (Bytes.sub_string blob start len));
    Varint.add_uvarint buf !k;
    Varint.add_uvarint buf (len - !k);
    Buffer.add_subbytes buf blob (start + !k) (len - !k);
    prev := start;
    prev_len := len
  done;
  Buffer.contents buf

(* A varint of one byte, the usual case, read in place. *)
let uvarint ~name s ~pos ~limit =
  let p = !pos in
  if p < limit && Char.code (String.unsafe_get s p) < 0x80 then begin
    pos := p + 1;
    Char.code (String.unsafe_get s p)
  end
  else Varint.uvarint ~name s ~pos ~limit

(* Two passes over the entries: the first checks them and sizes each
   name, the second copies the names into one exactly-sized blob, each
   shared prefix from the name before it.  Offsets go straight into a
   32-bit vector, the form a symbol table keeps them in. *)
let decode ~name s =
  let len = String.length s in
  if len < 4 then fail name "front-coded blob of %d bytes lacks a header" len;
  let b i = Char.code (String.unsafe_get s i) in
  let count = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  if count < 0 || count > len then
    fail name "front-coded entry count %d is implausible for %d bytes" count
      len;
  let off = I32.make (count + 1) 0 in
  let pos = ref 4 in
  for i = 0 to count - 1 do
    let shared = uvarint ~name s ~pos ~limit:len in
    let fresh = uvarint ~name s ~pos ~limit:len in
    let prev = if i = 0 then 0 else get off i - get off (i - 1) in
    if shared > prev then
      fail name "entry %d shares %d bytes with a %d-byte predecessor" i
        shared prev;
    if fresh < 0 || !pos + fresh > len then
      fail name "entry %d's %d-byte suffix overruns the blob" i fresh;
    (* Names are no longer than the blob, so their total fits 32 bits
       unless the blob is beyond 2^31 bytes. *)
    if not (I32.fits (get off i + shared + fresh)) then
      fail name "names of entries 0 .. %d pass 2^31 - 1 bytes" i;
    set off (i + 1) (get off i + shared + fresh);
    pos := !pos + fresh
  done;
  if !pos <> len then fail name "%d trailing bytes after last entry" (len - !pos);
  let blob = Bytes.create (get off count) in
  pos := 4;
  for i = 0 to count - 1 do
    let shared = uvarint ~name s ~pos ~limit:len in
    let fresh = uvarint ~name s ~pos ~limit:len in
    if shared > 0 then
      Bytes.blit blob (get off (i - 1)) blob (get off i) shared;
    Bytes.blit_string s !pos blob (get off i + shared) fresh;
    pos := !pos + fresh
  done;
  (Bytes.unsafe_to_string blob, off)
