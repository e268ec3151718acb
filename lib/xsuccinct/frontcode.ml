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

(* --- the reader ---------------------------------------------------------- *)

(* Entries per restart point.  A lookup decodes at most [bucket - 1]
   entries after the head it lands on; at 16 it is as fast as a binary
   search of the names spelled out ([desig_lookup_ns]), and the heads
   take a sixteenth of the names. *)
let bucket = 16

(* The coded blob as it was read, and per bucket of [bucket] entries
   its first name (the head) spelled out: head [b] is bytes
   [head_off.(b), head_off.(b + 1)) of [heads], entry [b * bucket + 1]
   starts at byte [entry_at.(b)] of [coded], and [dir.(b)] is the head's
   [prefix], the key a lookup binary-searches first. *)
type t = {
  coded : string;
  count : int;
  rank : int -> int;
  heads : string;
  head_off : I32.t;
  entry_at : I32.t;
  dir : int array;
}

exception Out_of_order

let count r = r.count
let coded r = r.coded

let prefix b off len =
  let k = ref 0 in
  for i = 0 to 6 do
    k :=
      (!k lsl 8)
      lor if i < len then Char.code (Bytes.unsafe_get b (off + i)) else 0
  done;
  !k

(* A varint of one byte, the usual case, read in place. *)
let uvarint ~name s ~pos ~limit =
  let p = !pos in
  if p < limit && Char.code (String.unsafe_get s p) < 0x80 then begin
    pos := p + 1;
    Char.code (String.unsafe_get s p)
  end
  else Varint.uvarint ~name s ~pos ~limit

(* The varint at [pos] of a blob [read] has checked, and the position
   after it: two functions of one result each, so a walk allocates
   nothing. *)
let rec varint_at s pos shift acc =
  let b = Char.code (String.unsafe_get s pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc else varint_at s (pos + 1) (shift + 7) acc

let rec after_varint s pos =
  if Char.code (String.unsafe_get s pos) < 0x80 then pos + 1
  else after_varint s (pos + 1)

(* The entry at [pos]: its shared length, its suffix's length and where
   its suffix starts. *)
let shared_at s pos = varint_at s pos 0 0
let fresh_at s pos = varint_at s (after_varint s pos) 0 0
let suffix_at s pos = after_varint s (after_varint s pos)

(* How many leading bytes [len] bytes of [s] at [i] share with [klen]
   bytes of [key] at [j]. *)
let rec common_from s i key j n k =
  if k < n && String.unsafe_get s (i + k) = Bytes.unsafe_get key (j + k) then
    common_from s i key j n (k + 1)
  else k

let common s i len key j klen =
  if len = 0 || klen = 0 || String.unsafe_get s i <> Bytes.unsafe_get key j
  then 0
  else common_from s i key j (min len klen) 1

(* [String.compare] of [len] bytes of [s] at [i] and [klen] of [key] at
   [j], as a sign. *)
let compare_at s i len key j klen =
  let k = common s i len key j klen in
  if k < len && k < klen then
    Char.code (String.unsafe_get s (i + k))
    - Char.code (Bytes.unsafe_get key (j + k))
  else len - klen

(* Two passes over the entries.  The first checks each one's bytes and
   sizes the heads; the second spells every name out in one scratch
   name, long enough for the longest, checks it sorts after the one
   before and copies each head out. *)
let read ~name ~rank s =
  let len = String.length s in
  if len < 4 then fail name "front-coded blob of %d bytes lacks a header" len;
  let b i = Char.code (String.unsafe_get s i) in
  let count = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  if count < 0 || count > len then
    fail name "front-coded entry count %d is implausible for %d bytes" count
      len;
  let nb = (count + bucket - 1) / bucket in
  let head_off = I32.make (nb + 1) 0 and entry_at = I32.make nb 0 in
  let pos = ref 4 and prev = ref 0 and total = ref 0 and longest = ref 0 in
  for i = 0 to count - 1 do
    let shared = uvarint ~name s ~pos ~limit:len in
    let fresh = uvarint ~name s ~pos ~limit:len in
    if shared < 0 || shared > !prev then
      fail name "entry %d shares %d bytes with a %d-byte predecessor" i
        shared !prev;
    if fresh < 0 || fresh > len - !pos then
      fail name "entry %d's %d-byte suffix overruns the blob" i fresh;
    (* Every name spelled out, back to back, stays below 2^31 bytes, so
       do the heads and each name. *)
    total := !total + shared + fresh;
    if not (I32.fits !total) then
      fail name "names of entries 0 .. %d pass 2^31 - 1 bytes" i;
    prev := shared + fresh;
    longest := max !longest !prev;
    pos := !pos + fresh;
    if i mod bucket = 0 then begin
      set head_off ((i / bucket) + 1) (get head_off (i / bucket) + !prev);
      set entry_at (i / bucket) !pos
    end
  done;
  if !pos <> len then
    fail name "%d trailing bytes after last entry" (len - !pos);
  let cur = Bytes.create !longest and heads = Bytes.create (get head_off nb) in
  let dir = Array.make nb 0 in
  pos := 4;
  for i = 0 to count - 1 do
    let shared = shared_at s !pos and fresh = fresh_at s !pos in
    pos := suffix_at s !pos;
    (* Name [i] is [cur]'s first [shared] bytes and the suffix; name
       [i - 1] is [cur]'s first [prev]. *)
    if i > 0 then begin
      let c = compare_at s !pos fresh cur shared (!prev - shared) in
      if c < 0 || (c = 0 && rank i <= rank (i - 1)) then raise Out_of_order
    end;
    Bytes.blit_string s !pos cur shared fresh;
    prev := shared + fresh;
    pos := !pos + fresh;
    if i mod bucket = 0 then begin
      Bytes.blit cur 0 heads (get head_off (i / bucket)) !prev;
      dir.(i / bucket) <- prefix cur 0 !prev
    end
  done;
  {
    coded = s;
    count;
    rank;
    heads = Bytes.unsafe_to_string heads;
    head_off;
    entry_at;
    dir;
  }

(* --- lookups, in place ---------------------------------------------------- *)

let head_start r b = get r.head_off b
let head_length r b = get r.head_off (b + 1) - get r.head_off b

(* Head [b] against the key as a [krank] entry, as a sign. *)
let compare_head r b key off len krank =
  match compare_at r.heads (head_start r b) (head_length r b) key off len with
  | 0 -> r.rank (b * bucket) - krank
  | c -> c

(* The last bucket in [lo, hi) whose head sorts at or before the key, or
   [lo - 1] when none does. *)
let rec last_head r key off len krank lo hi =
  if lo >= hi then lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    if compare_head r mid key off len krank <= 0 then
      last_head r key off len krank (mid + 1) hi
    else last_head r key off len krank lo mid

(* Entries [i .. stop - 1], the first at byte [pos], against the key,
   whose first [m] bytes the entry before [i] matches and which that
   entry sorts before.  An entry sharing more than [m] bytes with that
   one differs from the key where it does, so sorts before it too; one
   sharing at most [m] matches the key that far and is compared from
   there.  Both varints of an entry are one byte each but for long
   names, so [scan] reads those in place. *)
let rec scan r key off len krank m i stop pos =
  if i >= stop then -1
  else
    let s = r.coded in
    let l = Char.code (String.unsafe_get s pos) in
    let fresh = Char.code (String.unsafe_get s (pos + 1)) in
    if l < 0x80 && fresh < 0x80 then
      entry r key off len krank m i stop (pos + 2) l fresh
    else
      entry r key off len krank m i stop (suffix_at s pos) (shared_at s pos)
        (fresh_at s pos)

(* Entry [i], whose suffix of [fresh] bytes starts at [pos] and follows
   [l] bytes of the name before it. *)
and entry r key off len krank m i stop pos l fresh =
  if l > m then scan r key off len krank m (i + 1) stop (pos + fresh)
  else
    let k = common r.coded pos fresh key (off + l) (len - l) in
    if k < fresh then
      if
        l + k < len
        && String.unsafe_get r.coded (pos + k)
           < Bytes.unsafe_get key (off + l + k)
      then scan r key off len krank (l + k) (i + 1) stop (pos + fresh)
      else -1
    else if l + fresh < len then
      scan r key off len krank (l + fresh) (i + 1) stop (pos + fresh)
    else
      let c = r.rank i - krank in
      if c = 0 then i
      else if c < 0 then scan r key off len krank len (i + 1) stop (pos + fresh)
      else -1

let find r key off len krank =
  let pk = prefix key off len in
  (* A head whose prefix is below the key's sorts before the key, one
     whose prefix is above it after; only heads that share the key's
     prefix are compared in full. *)
  let past = Xutil.Binsearch.upper_bound r.dir ~len:(Array.length r.dir) pk in
  let b =
    if past = 0 || r.dir.(past - 1) < pk then past - 1
    else
      last_head r key off len krank
        (Xutil.Binsearch.lower_bound r.dir ~len:past pk)
        past
  in
  if b < 0 then -1
  else
    let hlen = head_length r b in
    let m = common r.heads (head_start r b) hlen key off len in
    if m = hlen && m = len && r.rank (b * bucket) = krank then b * bucket
    else
      scan r key off len krank m
        ((b * bucket) + 1)
        (min r.count ((b + 1) * bucket))
        (get r.entry_at b)

(* The length of entry [j]'s name from entry [i], at byte [pos], whose
   predecessor's name is [n] bytes long. *)
let rec length_from r j i pos n =
  if i > j then n
  else
    let fresh = fresh_at r.coded pos in
    length_from r j (i + 1)
      (suffix_at r.coded pos + fresh)
      (shared_at r.coded pos + fresh)

let check r j =
  if j < 0 || j >= r.count then invalid_arg "Frontcode: no such entry"

let length r j =
  check r j;
  let b = j / bucket in
  length_from r j ((b * bucket) + 1) (get r.entry_at b) (head_length r b)

(* How many bytes of the key entry [j]'s name matches, walking from
   entry [i] at byte [pos], whose predecessor matches [m]. *)
let rec matched_from r j key off len i pos m =
  if i > j then m
  else
    let l = shared_at r.coded pos and fresh = fresh_at r.coded pos in
    let pos = suffix_at r.coded pos in
    let m =
      if l > m then m else l + common r.coded pos fresh key (off + l) (len - l)
    in
    matched_from r j key off len (i + 1) (pos + fresh) m

let matched r j key off len =
  let b = j / bucket in
  matched_from r j key off len
    ((b * bucket) + 1)
    (get r.entry_at b)
    (common r.heads (head_start r b) (head_length r b) key off len)

let equal r j key off len =
  length r j = len && matched r j key off len = len

let has_prefix r j key off len =
  check r j;
  matched r j key off len = len

(* Each entry's suffix written over the bytes of the name before it, as
   far as they fall in entry [j]'s [n] bytes, leaves entry [j]'s name. *)
let rec fill r buf n j i pos =
  if i <= j then begin
    let l = shared_at r.coded pos and fresh = fresh_at r.coded pos in
    let pos = suffix_at r.coded pos in
    if l < n then Bytes.blit_string r.coded pos buf l (min fresh (n - l));
    fill r buf n j (i + 1) (pos + fresh)
  end

let name r j =
  let n = length r j in
  let b = j / bucket in
  let buf = Bytes.create n in
  Bytes.blit_string r.heads (head_start r b) buf 0 (min n (head_length r b));
  fill r buf n j ((b * bucket) + 1) (get r.entry_at b);
  Bytes.unsafe_to_string buf
