(* Columnar flat-buffer storage engine: see store.mli for the format. *)

let magic = "xseqcol1"
let magic_packed = "xseqcol2"
let format_version = 1
let header_fixed = 40 (* bytes before the TOC *)
let toc_entry_bytes = 64
let name_max = 31

type file_format = Col1 | Col2

let format_name = function Col1 -> "xseqcol1" | Col2 -> "xseqcol2"

(* --- checksums ---------------------------------------------------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* One bounds check up front; the byte loop is the load path's hot
   spot (every region byte a load reads is hashed once). *)
let fnv_bytes h0 b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Store.checksum: range out of bounds";
  let h = ref h0 in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        fnv_prime
  done;
  !h

let checksum_bytes b off len = fnv_bytes fnv_offset b off len

let checksum_string s off len =
  fnv_bytes fnv_offset (Bytes.unsafe_of_string s) off len

(* --- columns ------------------------------------------------------------ *)

(* Flat columns hold 32-bit elements: every label, serial and id of an
   index fits.  A file's packed column is decoded into one as it streams
   in; an xseqcol1 file's 32-bit elements are copied in as they are, its
   64-bit elements narrowed as they are read. *)
type flat = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type reader = {
  fd : Unix.file_descr; (* unbuffered: every read sees the file as it is *)
  r_page_size : int;
  file_len : int;
  pages : (int, bytes) Hashtbl.t;
  pool : Lru.t; (* capacity 0 for resident stores: nothing is cached *)
  spare : Bytes.t ref;
      (* the buffer of the page the pool evicted last, for the next read
         to reuse, or [Bytes.empty]; page bytes are only read under
         [lock], so no reader still holds it *)
  lock : Mutex.t; (* serialises every seek + read of [fd] *)
  mutable reads : int;
  mutable hits : int;
  mutable closed : bool;
}

(* A paged column: parsed skip tables resident, delta blocks fetched on
   demand through the buffer pool and decoded through a small
   direct-mapped cache of decoded blocks.  The cache is an array of
   [Atomic] slots holding immutable (block, elements) pairs: concurrent
   probes may race to fill a slot, which wastes a decode but never
   corrupts — [Atomic.set] publishes a fully built array. *)
type packed_col = {
  ph : Xsuccinct.Packed.t;
  p_fetch : int -> int -> string; (* region-relative byte fetch *)
  p_copy : int -> int -> Bytes.t -> unit;
      (* the same range copied to the front of a caller's buffer *)
  p_cache : (int * int array) Atomic.t array;
  p_mask : int;
}

type column = Flat of flat | Packed of packed_col

let flat_of_array a =
  let b =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (Array.length a)
  in
  Array.iteri
    (fun i x ->
      if not (Xutil.I32.fits x) then
        invalid_arg
          (Printf.sprintf
             "Store.flat_of_array: element %d (%d) does not fit in 32 bits" i
             x);
      Bigarray.Array1.unsafe_set b i (Int32.of_int x))
    a;
  Flat b

let length = function
  | Flat b -> Bigarray.Array1.dim b
  | Packed p -> Xsuccinct.Packed.count p.ph

let is_paged = function Packed _ -> true | Flat _ -> false

let off_heap_bytes = function
  | Flat b -> 4 * Bigarray.Array1.dim b
  | Packed _ -> 0

(* Decoded-block cache: enough slots to hold the hot set of a
   range-restricted binary search (a handful of link lists at a time),
   bounded so a resident store of many columns stays small-RAM. *)
let cache_slots nblocks =
  let want = min 256 (max 1 nblocks) in
  let s = ref 1 in
  while !s < want do
    s := !s * 2
  done;
  !s

let packed_col ph fetch copy =
  let slots = cache_slots (Xsuccinct.Packed.nblocks ph) in
  {
    ph;
    p_fetch = fetch;
    p_copy = copy;
    p_cache = Array.init slots (fun _ -> Atomic.make (-1, [||]));
    p_mask = slots - 1;
  }

let packed_block p b =
  let slot = Array.unsafe_get p.p_cache (b land p.p_mask) in
  let bid, arr = Atomic.get slot in
  if bid = b then arr
  else begin
    let arr = Xsuccinct.Packed.decode_block p.ph ~fetch:p.p_fetch b in
    Atomic.set slot (b, arr);
    arr
  end

(* [len] bytes at file offset [pos] into [b] at [off].
   @raise End_of_file when the file ends first. *)
let read_at fd pos b off len =
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let rec go off len =
    if len > 0 then
      match Xfault.Io.retry_eintr (fun () -> Unix.read fd b off len) with
      | 0 -> raise End_of_file
      | n -> go (off + n) (len - n)
  in
  go off len

(* The same through a reader; the caller holds its lock. *)
let input_at r pos b off len =
  if r.closed then invalid_arg "Store: store is closed";
  read_at r.fd pos b off len

(* The bytes of file page [page], through the buffer pool; the caller
   holds [r.lock] and reads them before releasing it, since the buffer
   is reused once the pool evicts the page.  Serialised: a paged store
   may be shared across query domains. *)
let page_locked r page =
  if r.closed then invalid_arg "Store: store is closed";
  match Hashtbl.find r.pages page with
  | b ->
    r.hits <- r.hits + 1;
    ignore (Lru.access r.pool page);
    b
  | exception Not_found ->
    r.reads <- r.reads + 1;
    let ps = r.r_page_size in
    let pos = page * ps in
    let avail = min ps (r.file_len - pos) in
    if avail <= 0 then invalid_arg "Store: page read past end of file";
    (* Entering the pool evicts its least recently used page first, and
       this read reuses that page's buffer. *)
    let cached = Lru.capacity r.pool > 0 in
    if cached then ignore (Lru.access r.pool page);
    let b =
      if Bytes.length !(r.spare) = ps then begin
        let b = !(r.spare) in
        r.spare := Bytes.empty;
        b
      end
      else Bytes.create ps
    in
    if avail < ps then Bytes.fill b avail (ps - avail) '\000';
    (try input_at r pos b 0 avail
     with End_of_file -> invalid_arg "Store: truncated file (page read)");
    if cached then Hashtbl.replace r.pages page b;
    b

(* Copy [len] bytes at file offset [pos0] to the front of [dst], from
   buffer-pool pages. *)
let copy_via_pool r pos0 len dst =
  Mutex.protect r.lock (fun () ->
      let ps = r.r_page_size in
      let pos = ref pos0 and at = ref 0 in
      while !at < len do
        let page = !pos / ps in
        let pb = page_locked r page in
        let in_page = !pos - (page * ps) in
        let n = min (len - !at) (ps - in_page) in
        Bytes.blit pb in_page dst !at n;
        pos := !pos + n;
        at := !at + n
      done)

(* An arbitrary byte range, assembled from buffer-pool pages. *)
let read_via_pool r pos len =
  if len = 0 then ""
  else begin
    let b = Bytes.create len in
    copy_via_pool r pos len b;
    Bytes.unsafe_to_string b
  end

let get c i =
  match c with
  | Flat b -> Int32.to_int (Bigarray.Array1.get b i)
  | Packed p ->
    if i < 0 || i >= Xsuccinct.Packed.count p.ph then
      invalid_arg "Store.get: index out of bounds";
    let bs = Xsuccinct.Packed.block_size p.ph in
    let b = i / bs in
    let r = i - (b * bs) in
    (* Block heads live in the resident skip table: no fetch, no
       decode — these are the sampled skip pointers the binary search
       lands on first. *)
    if r = 0 then Xsuccinct.Packed.first p.ph b
    else Array.unsafe_get (packed_block p b) r

(* A paged column read front to back decodes each block once, into
   one buffer per cache slot instead of a fresh array per block.  The
   blocks it fetches, and so the pages it reads, are those [get] would
   fetch; once the walk ends, each cache slot holds the last block it
   decoded there, as after the same reads through [get]. *)
let scan c f =
  match c with
  | Flat _ -> f (get c)
  | Packed p ->
    let count = Xsuccinct.Packed.count p.ph in
    let bs = Xsuccinct.Packed.block_size p.ph in
    let slots = Array.length p.p_cache in
    let bufs = Array.make slots [||] and last = Array.make slots (-1) in
    let cur = ref (-1) and cur_elts = ref [||] in
    (* A block's delta bytes are copied into one reused buffer and
       decoded from it. *)
    let bytes = ref Bytes.empty in
    let load b =
      let s = b land p.p_mask in
      let bid, elts = Atomic.get p.p_cache.(s) in
      if bid = b then elts
      else begin
        if Array.length bufs.(s) = 0 then bufs.(s) <- Array.make bs 0;
        let at, len = Xsuccinct.Packed.block_span p.ph b in
        if Bytes.length !bytes < len then bytes := Bytes.create (max len 256);
        p.p_copy at len !bytes;
        Xsuccinct.Packed.decode_span p.ph b (Bytes.unsafe_to_string !bytes)
          bufs.(s);
        last.(s) <- b;
        bufs.(s)
      end
    in
    let get i =
      if i < 0 || i >= count then invalid_arg "Store.get: index out of bounds";
      let b = i / bs in
      let r = i - (b * bs) in
      if r = 0 then Xsuccinct.Packed.first p.ph b
      else begin
        if b <> !cur then begin
          cur_elts := load b;
          cur := b
        end;
        Array.unsafe_get !cur_elts r
      end
    in
    let v = f get in
    Array.iteri
      (fun s b ->
        if b >= 0 then
          let n = min bs (count - (b * bs)) in
          Atomic.set p.p_cache.(s)
            (b, if n = bs then bufs.(s) else Array.sub bufs.(s) 0 n))
      last;
    v

let to_array c =
  match c with
  | Flat b ->
    Array.init (Bigarray.Array1.dim b) (fun i ->
        Int32.to_int (Bigarray.Array1.get b i))
  | Packed p -> Xsuccinct.Packed.decode_all p.ph ~fetch:p.p_fetch

(* --- stores ------------------------------------------------------------- *)

(* Disk kinds.  0, 1 and 4 are xseqcol1's kinds; 2 and 3 are the
   compressed encodings of xseqcol2, which also knows 0 and 1.  Odd
   kinds are blobs.  [write] gives int regions kind 2 and blobs kind 1,
   or kind 3 when LZ-coding them wins. *)
let k_ints = 0
let k_blob = 1
let k_ints_packed = 2
let k_blob_lz = 3
let k_ints32 = 4
let is_blob_kind k = k land 1 = 1

(* Bytes an element of a raw int region of kind [k] takes on disk. *)
let elt_bytes k = if k = k_ints32 then 4 else 8
let is_raw_ints k = k = k_ints || k = k_ints32

(* A region of an open file, as its TOC entry describes it. *)
type entry = {
  e_name : string;
  e_kind : int; (* disk kind *)
  e_off : int;
  e_count : int; (* elements for ints, raw bytes for blobs *)
  e_raw : int; (* logical bytes *)
  e_stored : int; (* bytes on disk before page padding *)
  e_padded : int;
  e_crc : int64; (* over the padded bytes *)
  mutable e_checked : bool;
      (* a read has matched the checksum since the open: [check_unread]
         skips the region *)
}

(* A memory store holds columns, staged arrays (of any width) and blobs.
   A file store keeps its TOC, its reader and the handles of its paged
   int columns; every other region is read from the file, and its
   checksum checked again, each time it is asked for. *)
type region =
  | R_ints of column
  | R_array of int array
  | R_blob of string
  | R_file of { r : reader; e : entry; handle : column option }

type t = {
  mutable order : string list; (* reverse registration order *)
  tbl : (string, region) Hashtbl.t;
  reader : reader option; (* file stores only *)
  s_format : file_format;
  s_page_size : int;
  mutable s_file_bytes : int; (* -1 = recompute (memory store) *)
}

type region_info = {
  r_name : string;
  r_kind : [ `Ints | `Blob ];
  r_count : int;
  r_bytes : int;
  r_stored : int;
  r_offset : int;
  r_pages : int;
}

let default_page_size = 1024

let memory () =
  {
    order = [];
    tbl = Hashtbl.create 16;
    reader = None;
    s_format = Col2;
    s_page_size = default_page_size;
    s_file_bytes = -1;
  }

let add t name region =
  if Hashtbl.mem t.tbl name then
    invalid_arg (Printf.sprintf "Store: duplicate region %S" name);
  if String.length name = 0 || String.length name > name_max then
    invalid_arg (Printf.sprintf "Store: region name %S must be 1..%d bytes" name name_max);
  Hashtbl.replace t.tbl name region;
  t.order <- name :: t.order;
  t.s_file_bytes <- -1

let add_ints t name col = add t name (R_ints col)
let add_int_array t name a = add t name (R_array a)
let add_blob t name s = add t name (R_blob s)

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Store: no region %S" name)

(* --- reading file regions ------------------------------------------------- *)

let fail_with prefix fmt =
  Printf.ksprintf (fun m -> invalid_arg (prefix ^ m)) fmt

let open_prefix = "Store.open_file: "
let read_prefix = "Store: "

(* Context string handed to the xsuccinct decoders: their diagnostics
   come out as "Store: region \"l_pre\": <what broke>". *)
let codec_name name = Printf.sprintf "Store: region %S" name

(* Multiples of 8, so no int element (4 or 8 bytes) straddles two
   chunks.  The open streams every region through one [chunk_bytes]
   scratch; a region read when asked for gets its own [read_chunk_bytes]
   chunk, the only allocation beyond its result. *)
let chunk_bytes = 65536
let read_chunk_bytes = 16384

(* A region read front to back through [buf], a chunk at a time, each
   read under the lock and hashed as it comes in.  [pos] counts the
   region bytes read so far, page padding included. *)
type stream = {
  s_r : reader;
  s_e : entry;
  s_buf : Bytes.t;
  s_prefix : string; (* diagnostics: open_prefix or read_prefix *)
  mutable s_pos : int;
  mutable s_h : int64;
}

let open_stream ~prefix r e buf =
  {
    s_r = r;
    s_e = e;
    s_buf = buf;
    s_prefix = prefix;
    s_pos = 0;
    s_h = fnv_offset;
  }

(* Reads and hashes the next chunk; returns how many of its bytes are
   stored bytes (the rest is padding). *)
let read_next s =
  let e = s.s_e and at = s.s_pos in
  let n = min (Bytes.length s.s_buf) (e.e_padded - at) in
  (try
     Mutex.protect s.s_r.lock (fun () ->
         input_at s.s_r (e.e_off + at) s.s_buf 0 n)
   with End_of_file ->
     fail_with s.s_prefix "truncated file (region %S cut short)" e.e_name);
  s.s_h <- fnv_bytes s.s_h s.s_buf 0 n;
  s.s_pos <- at + n;
  min n (e.e_stored - at)

(* The next chunk's stored bytes, from [s_buf]'s start; 0 once every
   stored byte was handed out. *)
let next_data s = if s.s_pos >= s.s_e.e_stored then 0 else read_next s

(* Reads what is left of the region and checks its checksum, over the
   stored bytes and the page padding. *)
let finish_stream s =
  while s.s_pos < s.s_e.e_padded do
    ignore (read_next s)
  done;
  if not (Int64.equal s.s_h s.s_e.e_crc) then
    fail_with s.s_prefix "region %S checksum mismatch" s.s_e.e_name;
  s.s_e.e_checked <- true

(* Streams region [e] through [buf], handing [sink buf at n] each
   chunk's stored bytes (region bytes [at, at + n), from [buf]'s start),
   and checks the checksum once the last chunk is in.  A sink only
   stages bytes: nothing is used before the check.  A sink that fails
   is called no more, and its failure is raised only once the checksum
   holds, so damaged bytes read as a checksum mismatch, never as what
   decoding them made of them. *)
let stream_region ~prefix r e ~buf sink =
  let s = open_stream ~prefix r e buf in
  let failed = ref None in
  let rec go () =
    let at = s.s_pos in
    match next_data s with
    | 0 -> ()
    | n ->
      (if Option.is_none !failed then
         try sink buf at n with Invalid_argument _ as x -> failed := Some x);
      go ()
  in
  go ();
  finish_stream s;
  Option.iter raise !failed

let chunk_for e = Bytes.create (min read_chunk_bytes e.e_padded)

(* The stored bytes of a region, in the string they are handed over in. *)
let read_stored r e =
  let b = Bytes.create e.e_stored in
  stream_region ~prefix:read_prefix r e ~buf:(chunk_for e) (fun buf at n ->
      Bytes.blit buf 0 b at n);
  Bytes.unsafe_to_string b

(* A packed column's header, parsed through [fetch] (region-relative
   byte ranges, bounds-checked here). *)
let parse_packed ~prefix e fetch =
  let fetch o l =
    if o < 0 || l < 0 || o + l > e.e_stored then
      fail_with prefix "region %S packed header overruns the region" e.e_name;
    fetch o l
  in
  let ph =
    Xsuccinct.Packed.parse ~name:(codec_name e.e_name) ~fetch ~length:e.e_stored
  in
  if Xsuccinct.Packed.count ph <> e.e_count then
    fail_with prefix "region %S packed header claims %d elements, TOC says %d"
      e.e_name (Xsuccinct.Packed.count ph) e.e_count;
  ph

(* Hands every element of the int region [e] to [set i x] as its bytes
   stream in: a raw region's 4- or 8-byte elements a chunk at a time, a
   packed column through its incremental decoder, with no copy of its
   stored bytes. *)
let stream_ints r e set =
  let buf = chunk_for e in
  if is_raw_ints e.e_kind then begin
    let w = elt_bytes e.e_kind in
    stream_region ~prefix:read_prefix r e ~buf (fun buf at n ->
        for k = 0 to (n / w) - 1 do
          set ((at / w) + k)
            (if w = 4 then Int32.to_int (Bytes.get_int32_le buf (4 * k))
             else
               (* Written from an int, so sign-extended from 63 bits. *)
               let x = Bytes.get_int64_le buf (8 * k) in
               if not (Int64.equal (Int64.of_int (Int64.to_int x)) x) then
                 fail_with read_prefix
                   "inconsistent snapshot: region %S element %d (%s) does \
                    not fit in an int"
                   e.e_name ((at / w) + k) (Int64.to_string x);
               Int64.to_int x)
        done)
  end
  else begin
    let d =
      Xsuccinct.Packed.decoder ~name:(codec_name e.e_name) ~length:e.e_stored
        ~count:e.e_count set
    in
    stream_region ~prefix:read_prefix r e ~buf (fun buf _ n ->
        Xsuccinct.Packed.feed d buf 0 n);
    Xsuccinct.Packed.finish d
  end

(* A resident int region, decoded into a 32-bit flat buffer as it
   streams in, failing the read on a value that does not fit. *)
let read_ints r e =
  let fb = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout e.e_count in
  stream_ints r e (fun i x ->
      if not (Xutil.I32.fits x) then
        fail_with read_prefix
          "inconsistent snapshot: region %S element %d (%d) does not fit in \
           32 bits"
          e.e_name i x;
      Bigarray.Array1.unsafe_set fb i (Int32.of_int x));
  Flat fb

let read_blob r e =
  let data = read_stored r e in
  if e.e_kind = k_blob then data
  else begin
    let raw = Xsuccinct.Lz.decompress ~name:(codec_name e.e_name) data in
    if String.length raw <> e.e_raw then
      fail_with read_prefix "region %S decompressed to %d bytes, TOC says %d"
        e.e_name (String.length raw) e.e_raw;
    raw
  end

let not_ints name =
  invalid_arg (Printf.sprintf "Store: region %S is a blob, not ints" name)

let ints t name =
  match find t name with
  | R_ints c | R_file { handle = Some c; _ } -> c
  | R_array a -> flat_of_array a
  | R_file { r; e; handle = None } when not (is_blob_kind e.e_kind) ->
    read_ints r e
  | R_blob _ | R_file _ -> not_ints name

(* The element count of int region [name], and a function that hands
   each element to [set i x]: a column the store holds is walked, a
   region read from the file is decoded as it streams in. *)
let elements t name =
  match find t name with
  | R_ints c | R_file { handle = Some c; _ } ->
    ( length c,
      fun set ->
        match c with
        | Packed p ->
          for b = 0 to Xsuccinct.Packed.nblocks p.ph - 1 do
            Xsuccinct.Packed.decode_into p.ph ~fetch:p.p_fetch b set
          done
        | Flat b ->
          for i = 0 to Bigarray.Array1.dim b - 1 do
            set i (Int32.to_int (Bigarray.Array1.unsafe_get b i))
          done )
  | R_array a -> (Array.length a, fun set -> Array.iteri set a)
  | R_file { r; e; handle = None } when not (is_blob_kind e.e_kind) ->
    (e.e_count, stream_ints r e)
  | R_blob _ | R_file _ -> not_ints name

let int_array t name =
  let n, iter = elements t name in
  let a = Array.make n 0 in
  iter (Array.unsafe_set a);
  a

let saturate x =
  if x > Xutil.I32.max_value then Xutil.I32.max_value
  else if x < Xutil.I32.min_value then Xutil.I32.min_value
  else x

(* [I32.set32] is inline where [I32.set] would be a call an element. *)
let i32 t name =
  let n, iter = elements t name in
  let v = Xutil.I32.make n 0 in
  iter (fun i x -> Xutil.I32.set32 v (4 * i) (Int32.of_int (saturate x)));
  v

let not_blob name =
  invalid_arg (Printf.sprintf "Store: region %S is ints, not a blob" name)

let blob t name =
  match find t name with
  | R_blob s -> s
  | R_file { r; e; _ } when is_blob_kind e.e_kind -> read_blob r e
  | R_ints _ | R_array _ | R_file _ -> not_blob name

let blob_bytes t name =
  match find t name with
  | R_blob s -> Bytes.of_string s
  | R_file { r; e; _ } when is_blob_kind e.e_kind ->
    Bytes.unsafe_of_string (read_blob r e)
  | R_ints _ | R_array _ | R_file _ -> not_blob name

(* A raw blob region of a file is streamed; a memory store's blob and an
   LZ region, decompressed whole once its checksum is checked, come as
   one chunk. *)
type blob_stream =
  | Chunks of stream
  | Whole of { data : string; mutable given : bool }

let stream_blob t name =
  match find t name with
  | R_blob s -> Whole { data = s; given = false }
  | R_file { r; e; _ } when e.e_kind = k_blob ->
    Chunks (open_stream ~prefix:read_prefix r e (chunk_for e))
  | R_file { r; e; _ } when is_blob_kind e.e_kind ->
    Whole { data = read_blob r e; given = false }
  | R_ints _ | R_array _ | R_file _ -> not_blob name

let stream_length = function
  | Chunks s -> s.s_e.e_raw
  | Whole w -> String.length w.data

let stream_next = function
  | Chunks s -> (s.s_buf, next_data s)
  | Whole w when w.given -> (Bytes.empty, 0)
  | Whole w ->
    w.given <- true;
    (Bytes.unsafe_of_string w.data, String.length w.data)

let stream_finish = function Chunks s -> finish_stream s | Whole _ -> ()

let mem t name = Hashtbl.mem t.tbl name
let names t = List.rev t.order

let round_up page_size n = (n + page_size - 1) / page_size * page_size

(* Bytes a region takes in a file: at least one page. *)
let padded_bytes page_size raw = max page_size (round_up page_size raw)

(* --- writing ------------------------------------------------------------ *)

(* Serialise region [name]: an int region delta-packed, a blob as it is
   or, under [compress], LZ-coded when that is smaller.  Returns the
   disk kind, the TOC count field (elements for int columns, raw bytes
   for blobs), the un-padded stored length and a function writing the
   stored bytes at the front of a buffer: the caller allocates the
   padded region once and nothing is serialised into an intermediate
   copy. *)
let encode_region ~compress t name =
  let verbatim kind s =
    (kind, String.length s, String.length s, fun b ->
        Bytes.blit_string s 0 b 0 (String.length s))
  in
  let int_region n get =
    let size, write = Xsuccinct.Packed.encoder ~count:n get in
    (k_ints_packed, n, size, fun b -> write b 0)
  in
  let array a = int_region (Array.length a) (Array.get a) in
  let blob_region s =
    if not compress then verbatim k_blob s
    else
      (* Keep whichever form is smaller; decoders accept both. *)
      let z = Xsuccinct.Lz.compress s in
      if String.length z < String.length s then
        let kind, _, stored, write = verbatim k_blob_lz z in
        (kind, String.length s, stored, write)
      else verbatim k_blob s
  in
  match find t name with
  | R_ints (Flat b as c) ->
    (* Read in place. *)
    int_region (length c) (fun i -> Int32.to_int (Bigarray.Array1.get b i))
  | R_ints (Packed _ as c) -> array (to_array c)
  | R_array a -> array a
  | R_blob s -> blob_region s
  | R_file { e; _ } when is_blob_kind e.e_kind -> blob_region (blob t name)
  | R_file _ -> array (int_array t name)

let write ?(page_size = default_page_size) ?(compress = false) t path =
  if page_size <= 0 || page_size mod 8 <> 0 then
    invalid_arg "Store.write: page_size must be a positive multiple of 8";
  let names = names t in
  let payload_off =
    round_up page_size (header_fixed + (toc_entry_bytes * List.length names))
  in
  (* Serialise, pad and checksum every region first; compressed sizes
     are only known once encoded. *)
  let off = ref payload_off in
  let payloads =
    List.map
      (fun name ->
        let dkind, cnt, stored, write = encode_region ~compress t name in
        let padded = padded_bytes page_size stored in
        let b = Bytes.create padded in
        write b;
        Bytes.fill b stored (padded - stored) '\000';
        let o = !off in
        off := o + padded;
        (name, dkind, cnt, stored, o, b, checksum_bytes b 0 padded))
      names
  in
  let total = !off in
  (* Header block: fixed fields + TOC, zero-padded to the payload. *)
  let header = Bytes.make payload_off '\000' in
  Bytes.blit_string magic_packed 0 header 0 8;
  Bytes.set_int32_le header 8 (Int32.of_int format_version);
  Bytes.set_int32_le header 12 (Int32.of_int page_size);
  Bytes.set_int32_le header 16 (Int32.of_int (List.length payloads));
  Bytes.set_int32_le header 20 (Int32.of_int payload_off);
  Bytes.set_int64_le header 24 (Int64.of_int total);
  List.iteri
    (fun i (name, dkind, cnt, stored, off, _b, crc) ->
      let e = header_fixed + (i * toc_entry_bytes) in
      Bytes.set_uint8 header e (String.length name);
      Bytes.blit_string name 0 header (e + 1) (String.length name);
      Bytes.set_uint8 header (e + 32) dkind;
      (* The stored (compressed) byte length, which xseqcol1 derived
         from the kind and the count. *)
      Bytes.set_int32_le header (e + 36) (Int32.of_int stored);
      Bytes.set_int64_le header (e + 40) (Int64.of_int off);
      Bytes.set_int64_le header (e + 48) (Int64.of_int cnt);
      Bytes.set_int64_le header (e + 56) crc)
    payloads;
  (* Header checksum covers everything but its own slot [32, 40). *)
  let crc =
    Int64.logxor
      (checksum_bytes header 0 32)
      (checksum_bytes header 40 (payload_off - 40))
  in
  Bytes.set_int64_le header 32 crc;
  (* Physical writes go through the {!Xfault.Io} shim so fault-injection
     schedules reach snapshot saves; EINTR and short writes are absorbed
     here, real faults (ENOSPC, EIO, Crashed) escape to the caller. *)
  let fd =
    Xfault.Io.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let write_all b =
        Xfault.Io.write_all fd (Bytes.unsafe_to_string b) 0 (Bytes.length b)
      in
      write_all header;
      List.iter (fun (_, _, _, _, _, b, _) -> write_all b) payloads)

(* What [write] (plain, at the store's page size) gives a region of a
   memory store: its logical bytes (8 an int element) and its stored
   ones.  Packing is sized, not written. *)
let memory_region_bytes t name =
  let kind, count, stored, _ = encode_region ~compress:false t name in
  ((if is_blob_kind kind then count else 8 * count), stored)

let file_bytes t =
  if t.s_file_bytes < 0 then begin
    let ps = t.s_page_size and names = names t in
    t.s_file_bytes <-
      List.fold_left
        (fun total name ->
          total + padded_bytes ps (snd (memory_region_bytes t name)))
        (round_up ps (header_fixed + (toc_entry_bytes * List.length names)))
        names
  end;
  t.s_file_bytes

let page_size t = t.s_page_size
let file_format t = t.s_format

(* --- opening ------------------------------------------------------------ *)

type mode = Resident | Paged

let fail fmt = fail_with open_prefix fmt

(* Readers whose descriptor is open.  Descriptors are a resource the
   collector does not see: a dropped store closes its descriptor in a
   finaliser, which runs once a major cycle ends, and a program that
   loads small snapshots over and over allocates too little to end one.
   So once [collect_above] readers are open, an open first runs a full
   collection, and the next one comes [collect_slack] opens past what
   that collection left open.  The count is a pacing hint, not a
   ledger. *)
let open_readers = Atomic.make 0
let collect_slack = 32
let collect_above = Atomic.make collect_slack

let collect_dropped_readers () =
  if Atomic.get open_readers >= Atomic.get collect_above then begin
    Gc.full_major ();
    Atomic.set collect_above (Atomic.get open_readers + collect_slack)
  end

(* The descriptor lives as long as the store: [close] releases it, or
   this finaliser once nothing reaches the reader, so an index whose
   file was unlinked or replaced since still reads its regions. *)
let close_reader r =
  if not r.closed then begin
    r.closed <- true;
    Atomic.decr open_readers;
    try Unix.close r.fd with Unix.Unix_error _ -> ()
  end

(* The handle a paged int region (an xseqcol2 column, the only kind a
   paged store holds) keeps: its header is parsed here, once, straight
   from the file, and probes fetch its delta blocks through the buffer
   pool. *)
let paged_handle r e : column =
  let direct o l =
    let b = Bytes.create l in
    (try Mutex.protect r.lock (fun () -> input_at r (e.e_off + o) b 0 l)
     with End_of_file -> fail "truncated file (region %S cut short)" e.e_name);
    Bytes.unsafe_to_string b
  in
  let ph = parse_packed ~prefix:open_prefix e direct in
  Packed
    (packed_col ph
       (fun o l -> read_via_pool r (e.e_off + o) l)
       (fun o l dst -> copy_via_pool r (e.e_off + o) l dst))

let open_file ?(mode = Resident) ?(pool_pages = 256) ?(deferred = false) path =
  collect_dropped_readers ();
  (* The open is routed through {!Xfault.Io} (so schedules can refuse or
     delay it). *)
  let fd = Xfault.Io.openfile path [ Unix.O_RDONLY ] 0 in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !ok then try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let actual_len = (Unix.fstat fd).Unix.st_size in
      if actual_len < header_fixed then fail "truncated file (no header)";
      let header_prefix = Bytes.create header_fixed in
      (try read_at fd 0 header_prefix 0 header_fixed
       with End_of_file -> fail "truncated file (no header)");
      let format =
        match Bytes.sub_string header_prefix 0 8 with
        | s when String.equal s magic -> Col1
        | s when String.equal s magic_packed -> Col2
        | _ -> fail "bad magic (not an xseq columnar snapshot)"
      in
      if format = Col1 && mode = Paged then
        fail
          "an xseqcol1 snapshot cannot be opened paged; rewrite it as xseqcol2 \
           with `xseq index %s -o NEW`"
          path;
      let version = Int32.to_int (Bytes.get_int32_le header_prefix 8) in
      if version <> format_version then
        fail "unsupported version %d (this build reads version %d)" version
          format_version;
      let page_size = Int32.to_int (Bytes.get_int32_le header_prefix 12) in
      if page_size <= 0 || page_size mod 8 <> 0 || page_size > 1 lsl 24 then
        fail "invalid page size %d" page_size;
      let count = Int32.to_int (Bytes.get_int32_le header_prefix 16) in
      if count < 0 || count > 100_000 then fail "invalid region count %d" count;
      let payload_off = Int32.to_int (Bytes.get_int32_le header_prefix 20) in
      if
        payload_off < header_fixed + (toc_entry_bytes * count)
        || payload_off mod page_size <> 0
      then fail "invalid payload offset %d" payload_off;
      let file_len = Int64.to_int (Bytes.get_int64_le header_prefix 24) in
      if file_len <> actual_len then
        fail "truncated file (header says %d bytes, file has %d)" file_len
          actual_len;
      if payload_off > actual_len then fail "truncated file (header cut short)";
      (* Re-read the whole header block to verify its checksum. *)
      let header = Bytes.create payload_off in
      (try read_at fd 0 header 0 payload_off
       with End_of_file -> fail "truncated file (header cut short)");
      let stored_crc = Bytes.get_int64_le header 32 in
      let crc =
        Int64.logxor
          (checksum_bytes header 0 32)
          (checksum_bytes header 40 (payload_off - 40))
      in
      if not (Int64.equal crc stored_crc) then fail "header checksum mismatch";
      (* Parse the TOC. *)
      let entries =
        List.init count (fun i ->
            let e = header_fixed + (i * toc_entry_bytes) in
            let name_len = Bytes.get_uint8 header e in
            if name_len = 0 || name_len > name_max then
              fail "malformed TOC entry %d (name length %d)" i name_len;
            let name = Bytes.sub_string header (e + 1) name_len in
            let dkind = Bytes.get_uint8 header (e + 32) in
            (match format, dkind with
             | _, (0 | 1) -> ()
             | Col1, 4 | Col2, (2 | 3) -> ()
             | _, k -> fail "malformed TOC entry %S (unknown kind %d)" name k);
            let off = Int64.to_int (Bytes.get_int64_le header (e + 40)) in
            let cnt = Int64.to_int (Bytes.get_int64_le header (e + 48)) in
            let raw =
              if is_blob_kind dkind then cnt else elt_bytes dkind * cnt
            in
            let stored =
              match format with
              | Col1 -> raw
              | Col2 ->
                let s = Int32.to_int (Bytes.get_int32_le header (e + 36)) in
                if (dkind = k_ints || dkind = k_blob) && s <> 0 && s <> raw
                then
                  fail "malformed TOC entry %S (stored length %d for %d raw \
                        bytes)"
                    name s raw;
                if dkind = k_ints || dkind = k_blob then raw else s
            in
            let padded = padded_bytes page_size stored in
            if cnt < 0 || stored < 0 || off < payload_off
               || off mod page_size <> 0
            then fail "malformed TOC entry %S (offset %d)" name off;
            if off + padded > file_len then
              fail "truncated file (region %S extends past the end)" name;
            {
              e_name = name;
              e_kind = dkind;
              e_off = off;
              e_count = cnt;
              e_raw = raw;
              e_stored = stored;
              e_padded = padded;
              e_crc = Bytes.get_int64_le header (e + 56);
              e_checked = false;
            })
      in
      let pages = Hashtbl.create 64 in
      let spare = ref Bytes.empty in
      let r =
        {
          fd;
          r_page_size = page_size;
          file_len;
          pages;
          pool =
            Lru.create
              ~on_evict:(fun p ->
                Option.iter (fun b -> spare := b) (Hashtbl.find_opt pages p);
                Hashtbl.remove pages p)
              (match mode with Paged -> max 1 pool_pages | Resident -> 0);
          spare;
          lock = Mutex.create ();
          reads = 0;
          hits = 0;
          closed = false;
        }
      in
      let t =
        {
          order = [];
          tbl = Hashtbl.create 16;
          reader = Some r;
          s_format = format;
          s_page_size = page_size;
          s_file_bytes = file_len;
        }
      in
      (* Regions are checksummed here, streamed through one scratch
         buffer; none is kept.  A deferred open checks only the int
         regions a paged store keeps handles for, whose probes never
         check: every other region is checked as it is read, or by
         [check_unread].  Paged int regions get their handles. *)
      let scratch = lazy (Bytes.create chunk_bytes) in
      List.iter
        (fun e ->
          let keeps = mode = Paged && not (is_blob_kind e.e_kind) in
          if keeps || not deferred then
            stream_region ~prefix:open_prefix r e ~buf:(Lazy.force scratch)
              (fun _ _ _ -> ());
          (* A raw int region of an xseqcol2 file (never written, but
             readable) is read into memory; only packed columns page. *)
          let handle =
            if not keeps then None
            else if is_raw_ints e.e_kind then Some (read_ints r e)
            else Some (paged_handle r e)
          in
          add t e.e_name (R_file { r; e; handle }))
        entries;
      (* Registration mutated the cached size; restore the real file size. *)
      t.s_file_bytes <- file_len;
      Atomic.incr open_readers;
      Gc.finalise close_reader r;
      ok := true;
      t)

let check_unread t =
  let buf = ref Bytes.empty in
  List.iter
    (fun name ->
      match find t name with
      | R_file { r; e; _ } when not e.e_checked ->
        if Bytes.length !buf = 0 then buf := Bytes.create read_chunk_bytes;
        stream_region ~prefix:open_prefix r e ~buf:!buf (fun _ _ _ -> ())
      | R_ints _ | R_array _ | R_blob _ | R_file _ -> ())
    (names t)

(* --- introspection ------------------------------------------------------ *)

let regions t =
  List.map
    (fun name ->
      match find t name with
      | R_file { e; _ } ->
        {
          r_name = name;
          r_kind = (if is_blob_kind e.e_kind then `Blob else `Ints);
          r_count = e.e_count;
          r_bytes = e.e_raw;
          r_stored = e.e_stored;
          r_offset = e.e_off;
          r_pages = e.e_padded / t.s_page_size;
        }
      | (R_ints _ | R_array _ | R_blob _) as region ->
        (* Memory store: synthesise the info [write] would produce. *)
        let raw, stored = memory_region_bytes t name in
        {
          r_name = name;
          r_kind = (match region with R_blob _ -> `Blob | _ -> `Ints);
          r_count =
            (match region with
             | R_ints c -> length c
             | R_array a -> Array.length a
             | _ -> raw);
          r_bytes = raw;
          r_stored = stored;
          r_offset = -1;
          r_pages = padded_bytes t.s_page_size stored / t.s_page_size;
        })
    (names t)

let page_reads t = match t.reader with Some r -> r.reads | None -> 0
let page_hits t = match t.reader with Some r -> r.hits | None -> 0

let pool_capacity t =
  match t.reader with Some r -> Lru.capacity r.pool | None -> 0

(* Empties the page cache, the LRU and the decoded-block caches of paged
   packed columns (their blocks were read through the pool).  The caller
   holds the pool mutex. *)
let clear_caches t r =
  Hashtbl.reset r.pages;
  Lru.clear r.pool;
  Hashtbl.iter
    (fun _ region ->
      match region with
      | R_file { handle = Some (Packed p); _ } ->
        Array.iter (fun slot -> Atomic.set slot (-1, [||])) p.p_cache
      | _ -> ())
    t.tbl

let with_pool t f =
  match t.reader with
  | None -> ()
  | Some r -> Mutex.protect r.lock (fun () -> f r)

let drop_pool t = with_pool t (clear_caches t)

(* A closed handle must refuse every probe, not answer the cached subset
   and raise on the rest: closing drops every cache too. *)
let close t =
  with_pool t (fun r ->
      if not r.closed then begin
        close_reader r;
        clear_caches t r
      end)
