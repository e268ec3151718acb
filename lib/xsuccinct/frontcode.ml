let fail name fmt =
  Printf.ksprintf (fun s -> invalid_arg (name ^ ": " ^ s)) fmt

let add_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let lcp a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

let encode names =
  let count = Array.length names in
  let buf = Buffer.create (64 + (count * 8)) in
  add_u32 buf count;
  Array.iteri
    (fun i s ->
      let prev = if i = 0 then "" else names.(i - 1) in
      if i > 0 && String.compare prev s > 0 then
        invalid_arg
          (Printf.sprintf
             "Frontcode.encode: input not sorted at entry %d (%S > %S)" i prev
             s);
      let shared = lcp prev s in
      Varint.add_uvarint buf shared;
      Varint.add_uvarint buf (String.length s - shared);
      Buffer.add_substring buf s shared (String.length s - shared))
    names;
  Buffer.contents buf

(* Two passes over the entries: the first checks them and sizes each
   name, the second copies the names into one exactly-sized blob, each
   shared prefix from the name before it.  Offsets go straight into a
   32-bit vector, the form a symbol table keeps them in. *)
let decode ~name s =
  let module I32 = Xutil.I32 in
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
    let shared = Varint.uvarint ~name s ~pos ~limit:len in
    let fresh = Varint.uvarint ~name s ~pos ~limit:len in
    let prev = if i = 0 then 0 else I32.get off i - I32.get off (i - 1) in
    if shared > prev then
      fail name "entry %d shares %d bytes with a %d-byte predecessor" i
        shared prev;
    if fresh < 0 || !pos + fresh > len then
      fail name "entry %d's %d-byte suffix overruns the blob" i fresh;
    (* Names are no longer than the blob, so their total fits 32 bits
       unless the blob is beyond 2^31 bytes. *)
    if not (I32.fits (I32.get off i + shared + fresh)) then
      fail name "names of entries 0 .. %d pass 2^31 - 1 bytes" i;
    I32.set off (i + 1) (I32.get off i + shared + fresh);
    pos := !pos + fresh
  done;
  if !pos <> len then fail name "%d trailing bytes after last entry" (len - !pos);
  let blob = Bytes.create (I32.get off count) in
  pos := 4;
  for i = 0 to count - 1 do
    let shared = Varint.uvarint ~name s ~pos ~limit:len in
    let fresh = Varint.uvarint ~name s ~pos ~limit:len in
    if shared > 0 then
      Bytes.blit blob (I32.get off (i - 1)) blob (I32.get off i) shared;
    Bytes.blit_string s !pos blob (I32.get off i + shared) fresh;
    pos := !pos + fresh
  done;
  (Bytes.unsafe_to_string blob, off)
