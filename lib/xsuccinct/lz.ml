let fail name fmt =
  Printf.ksprintf (fun s -> invalid_arg (name ^ ": " ^ s)) fmt

let min_match = 4
let hash_bits = 15
let hash_size = 1 lsl hash_bits

(* Multiplicative hash of the 4 bytes at [i], read as one unsigned
   little-endian word. *)
let hash4 s i =
  let w = Int32.to_int (String.get_int32_le s i) land 0xFFFF_FFFF in
  (w * 0x9E3779B1) lsr (31 - hash_bits) land (hash_size - 1)

(* The length of the common run of [s] at [a] and at [b], [a < b], up to
   the end of [s]: 8 bytes a step while a whole word fits, then byte by
   byte. *)
let common_run s a b =
  let n = String.length s in
  let k = ref 0 in
  while
    b + !k + 8 <= n
    && Int64.equal (String.get_int64_le s (a + !k)) (String.get_int64_le s (b + !k))
  do
    k := !k + 8
  done;
  while
    b + !k < n
    && Char.equal (String.unsafe_get s (a + !k)) (String.unsafe_get s (b + !k))
  do
    incr k
  done;
  !k

let add_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let max_chain = 32

let slot slots k = Int32.to_int (Bytes.get_int32_le slots (4 * k))
let set_slot slots k v = Bytes.set_int32_le slots (4 * k) (Int32.of_int v)

(* The length of the match at [cand] for position [i] of [s] when it is
   longer than [best], else 0.  Cheap rejection first: a longer match
   must agree where the current best ends.  [cand < i], so
   [i + best < length s] bounds both probes; at [i + best = length s]
   no longer match exists at all.  The same bound makes every read in
   range. *)
let beats s i best cand =
  if
    best = 0
    || (i + best < String.length s
        && Char.equal
             (String.unsafe_get s (cand + best))
             (String.unsafe_get s (i + best)))
  then
    let k = common_run s cand i in
    if k > best then k else 0
  else 0

(* Per-bucket rings take this many 32-bit slots (4 MiB) whatever the
   input; a chain takes one per input byte. *)
let ring_slots = hash_size * max_chain

let compress s =
  let n = String.length s in
  let out = Buffer.create (16 + (n / 2)) in
  add_u32 out n;
  (* The candidates for a match at [i] are the last [max_chain] earlier
     positions that hash like [i], newest first, all of them tried to
     find the longest match, not just the nearest.  Two layouts give the
     same candidates in the same order, so the same output.  Below
     [ring_slots] input bytes, a chain: [newest.(h)] is the last position
     hashing to [h] (-1 for none), and slot [i] the position before [i]
     with its hash.  From [ring_slots] bytes on, a ring of [max_chain]
     slots per bucket, [newest.(h)] counting the positions put in it: a
     search reads one 128-byte block where a chain walk misses the cache
     at each of up to [max_chain] scattered links (about half the time
     on a 1.85 MB record region), and the rings are no larger than the
     chain would be.  Slots are written before they are read, so the
     bytes start uninitialised. *)
  if n > 0x7FFF_FFFF then invalid_arg "Lz.compress: input over 2 GiB";
  let ring = n >= ring_slots in
  let newest = Array.make hash_size (if ring then 0 else -1) in
  let slots = Bytes.create (4 * if ring then ring_slots else n) in
  let insert i =
    let h = hash4 s i in
    if ring then begin
      set_slot slots ((h * max_chain) + (newest.(h) land (max_chain - 1))) i;
      newest.(h) <- newest.(h) + 1
    end
    else begin
      set_slot slots i newest.(h);
      newest.(h) <- i
    end
  in
  let lit_start = ref 0 in
  let emit_literals upto =
    Varint.add_uvarint out (upto - !lit_start);
    Buffer.add_substring out s !lit_start (upto - !lit_start)
  in
  let i = ref 0 and best_len = ref 0 and best_pos = ref (-1) in
  while !i + min_match <= n do
    best_len := 0;
    best_pos := -1;
    let h = hash4 s !i in
    if ring then begin
      let put = newest.(h) in
      for t = 1 to min put max_chain do
        let cand =
          slot slots ((h * max_chain) + ((put - t) land (max_chain - 1)))
        in
        let k = beats s !i !best_len cand in
        if k > 0 then begin
          best_len := k;
          best_pos := cand
        end
      done
    end
    else begin
      let cand = ref newest.(h) and tries = ref max_chain in
      while !cand >= 0 && !tries > 0 do
        let k = beats s !i !best_len !cand in
        if k > 0 then begin
          best_len := k;
          best_pos := !cand
        end;
        cand := slot slots !cand;
        decr tries
      done
    end;
    if !best_len >= min_match then begin
      let mlen = !best_len in
      emit_literals !i;
      Varint.add_uvarint out (mlen - min_match);
      Varint.add_uvarint out (!i - !best_pos);
      (* Seed the table across the matched span so later repeats of its
         interior are still found. *)
      let stop = min (!i + mlen) (n - min_match + 1) in
      let j = ref !i in
      while !j < stop do
        insert !j;
        incr j
      done;
      i := !i + mlen;
      lit_start := !i
    end
    else begin
      insert !i;
      incr i
    end
  done;
  (* A trailing empty run would be unread by the decoder (it stops as
     soon as the output is complete), so emit only a non-empty tail. *)
  if n > !lit_start then emit_literals n;
  Buffer.contents out

let decompress ~name s =
  let len = String.length s in
  if len < 4 then fail name "compressed blob of %d bytes lacks a header" len;
  let b i = Char.code (String.unsafe_get s i) in
  let raw_len = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  if raw_len < 0 then fail name "negative raw length";
  let out = Bytes.create raw_len in
  let produced = ref 0 in
  let pos = ref 4 in
  while !produced < raw_len do
    let lit = Varint.uvarint ~name s ~pos ~limit:len in
    if lit > raw_len - !produced then
      fail name "literal run of %d bytes overruns the %d-byte output" lit
        raw_len;
    if !pos + lit > len then
      fail name "literal run of %d bytes overruns the compressed input" lit;
    Bytes.blit_string s !pos out !produced lit;
    pos := !pos + lit;
    produced := !produced + lit;
    if !produced < raw_len then begin
      let mlen = min_match + Varint.uvarint ~name s ~pos ~limit:len in
      let dist = Varint.uvarint ~name s ~pos ~limit:len in
      if dist < 1 || dist > !produced then
        fail name "match distance %d with only %d bytes produced" dist
          !produced;
      if mlen > raw_len - !produced then
        fail name "match of %d bytes overruns the %d-byte output" mlen raw_len;
      (* Byte-by-byte: matches may overlap their own output. *)
      for k = 0 to mlen - 1 do
        Bytes.unsafe_set out (!produced + k)
          (Bytes.unsafe_get out (!produced + k - dist))
      done;
      produced := !produced + mlen
    end
  done;
  if !pos <> len then
    fail name "%d trailing bytes after output complete" (len - !pos);
  Bytes.unsafe_to_string out
