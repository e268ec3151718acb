let add_uvarint buf v =
  (* lsr, not asr: treat [v] as its unsigned 63-bit pattern so the loop
     terminates for negative inputs (9 bytes, the worst case). *)
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let uvarint_size v =
  let v = ref (v lsr 7) and n = ref 1 in
  while !v <> 0 do
    v := !v lsr 7;
    incr n
  done;
  !n

let set_uvarint b pos v =
  let v = ref v and p = ref pos in
  while !v lsr 7 <> 0 do
    Bytes.set b !p (Char.chr (!v land 0x7f lor 0x80));
    v := !v lsr 7;
    incr p
  done;
  Bytes.set b !p (Char.chr !v);
  !p + 1

let uvarint ~name s ~pos ~limit =
  let v = ref 0 and shift = ref 0 and p = ref !pos and fin = ref false in
  while not !fin do
    if !p >= limit || !p >= String.length s then
      invalid_arg (Printf.sprintf "%s: truncated varint at byte %d" name !p);
    if !shift > 56 then
      invalid_arg (Printf.sprintf "%s: varint longer than 9 bytes" name);
    let b = Char.code (String.unsafe_get s !p) in
    incr p;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then fin := true
  done;
  pos := !p;
  !v

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))
