let fail name fmt =
  Printf.ksprintf (fun s -> invalid_arg (name ^ ": " ^ s)) fmt

let min_match = 4
let hash_bits = 15
let hash_size = 1 lsl hash_bits

(* Multiplicative hash of the 4 bytes at [i]. *)
let hash4 s i =
  let b j = Char.code (String.unsafe_get s (i + j)) in
  let w = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  (w * 0x9E3779B1) lsr (31 - hash_bits) land (hash_size - 1)

let add_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let max_chain = 32

let compress s =
  let n = String.length s in
  let out = Buffer.create (16 + (n / 2)) in
  add_u32 out n;
  (* Hash chains: head.(h) = most recent position hashing to [h],
     prev i = previous position with i's hash — walked up to [max_chain]
     deep to find the longest match, not just the nearest.  The chain
     has one entry per input byte, so it is stored in 32-bit slots
     rather than 8-byte array cells.  Only [insert] writes a slot, and
     it writes slot [i] before anything reads it, so the bytes start
     uninitialised. *)
  if n > 0x7FFF_FFFF then invalid_arg "Lz.compress: input over 2 GiB";
  let head = Array.make hash_size (-1) in
  let chain = Bytes.create (4 * n) in
  let prev i = Int32.to_int (Bytes.get_int32_le chain (4 * i)) in
  let insert i =
    let h = hash4 s i in
    Bytes.set_int32_le chain (4 * i) (Int32.of_int head.(h));
    head.(h) <- i
  in
  let lit_start = ref 0 in
  let emit_literals upto =
    Varint.add_uvarint out (upto - !lit_start);
    Buffer.add_substring out s !lit_start (upto - !lit_start)
  in
  let i = ref 0 in
  while !i + min_match <= n do
    (* Walk the chain for the longest match at [i]. *)
    let best_len = ref 0 and best_pos = ref (-1) in
    let cand = ref head.(hash4 s !i) in
    let tries = ref max_chain in
    while !cand >= 0 && !tries > 0 do
      (* Cheap rejection: a longer match must agree where the current
         best ends.  [cand < i], so [i + best_len < n] bounds both
         probes; at [i + best_len = n] no longer match exists at all.
         The same bound makes every read below in range. *)
      if
        !best_len = 0
        || (!i + !best_len < n
            && Char.equal
                 (String.unsafe_get s (!cand + !best_len))
                 (String.unsafe_get s (!i + !best_len)))
      then begin
        let k = ref 0 in
        while
          !i + !k < n
          && Char.equal
               (String.unsafe_get s (!cand + !k))
               (String.unsafe_get s (!i + !k))
        do
          incr k
        done;
        if !k > !best_len then begin
          best_len := !k;
          best_pos := !cand
        end
      end;
      cand := prev !cand;
      decr tries
    done;
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
