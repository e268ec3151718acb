(* The columnar storage engine: write/open round trips, exhaustive
   corruption detection, the paged buffer pool, and the backend-equivalence
   oracle — the built index's flat buffers and compressed columns,
   resident or paged, must answer every query identically, counter for
   counter. *)

module Store = Xstorage.Store
module T = Xmlcore.Xml_tree
module Gen = QCheck.Gen
module Pattern = Xquery.Pattern

let with_temp name f =
  let path = Filename.temp_file name ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let tiny_store () =
  let s = Store.memory () in
  Store.add_int_array s "col" [| 1; 2; 3; 42; 1000; -7; max_int |];
  Store.add_ints s "flat" (Store.flat_of_array [| 9; 8; 7 |]);
  Store.add_blob s "blob" "hello, store";
  s

(* A store that stresses the compressed codecs: full-range ints (delta
   wrap-around across min_int/max_int), a multi-block column, and a
   blob with enough repetition for LZ to bite. *)
let extremes = [| 0; 1; -1; 42; -1000; max_int; min_int; max_int; 17 |]
let spread = Array.init 400 (fun i -> (i * 7919 mod 2003) - 1001)

let tiny_store2 () =
  let s = Store.memory () in
  Store.add_int_array s "col" (Array.copy extremes);
  Store.add_ints s "flat" (Store.flat_of_array (Array.copy spread));
  Store.add_blob s "blob"
    (String.concat ";" (List.init 60 (fun i -> Printf.sprintf "entry-%d" i)));
  s

(* --- round trips --------------------------------------------------------- *)

let test_roundtrip_resident () =
  with_temp "store_rt" (fun path ->
      Store.write ~page_size:16 (tiny_store ()) path;
      let s = Store.open_file path in
      Alcotest.(check (list int))
        "int column survives"
        [ 1; 2; 3; 42; 1000; -7; max_int ]
        (Array.to_list (Store.int_array s "col"));
      (* A resident column is 32-bit: [max_int] fails the read. *)
      (match Store.ints s "col" with
       | _ -> Alcotest.fail "a resident column held max_int"
       | exception Invalid_argument msg ->
         Alcotest.(check string) "diagnostic"
           "Store: inconsistent snapshot: region \"col\" element 6 \
            (4611686018427387903) does not fit in 32 bits"
           msg);
      let col = Store.ints s "flat" in
      Alcotest.(check (list int))
        "flat column survives" [ 9; 8; 7 ]
        (Array.to_list (Store.to_array col));
      Alcotest.(check string) "blob survives" "hello, store"
        (Store.blob s "blob");
      Alcotest.(check bool) "resident columns are not paged" false
        (Store.is_paged col);
      Alcotest.(check int)
        "file_bytes matches the file" (String.length (read_all path))
        (Store.file_bytes s);
      (* A memory store predicts the size write would produce at the
         default page size. *)
      with_temp "store_rt_default" (fun path2 ->
          Store.write (tiny_store ()) path2;
          Alcotest.(check int)
            "memory store predicts the same size"
            (String.length (read_all path2))
            (Store.file_bytes (tiny_store ())));
      (* It does for regions of several pages: 3,000 elements of small
         deltas, 1,000 of which the last needs 64 bits (8 logical bytes
         an element either way). *)
      let pages () =
        let m = Store.memory () in
        Store.add_int_array m "narrow" (Array.init 3000 (fun i -> i - 1500));
        Store.add_int_array m "wide"
          (Array.init 1000 (fun i -> if i = 999 then max_int else i));
        m
      in
      with_temp "store_rt_pages" (fun path3 ->
          Store.write (pages ()) path3;
          let m = pages () in
          Alcotest.(check int)
            "memory store predicts multi-page regions"
            (String.length (read_all path3))
            (Store.file_bytes m);
          let f = Store.open_file path3 in
          let shape s =
            List.map
              (fun r -> (r.Store.r_bytes, (r.Store.r_stored, r.Store.r_pages)))
              (Store.regions s)
          in
          Alcotest.(check (list int))
            "memory store logical bytes" [ 24_000; 8_000 ]
            (List.map fst (shape m));
          Alcotest.(check bool) "several pages each" true
            (List.for_all (fun (_, (_, pages)) -> pages > 1) (shape m));
          Alcotest.(check (list (pair int (pair int int))))
            "file regions = memory store regions" (shape m) (shape f);
          Store.close f);
      let names = List.map (fun r -> r.Store.r_name) (Store.regions s) in
      Alcotest.(check (list string))
        "TOC order = registration order" [ "col"; "flat"; "blob" ] names;
      Store.close s)

(* A paged store is an xseqcol2 file: its columns stay compressed on
   disk and their blocks come through the buffer pool. *)
let test_roundtrip_paged () =
  with_temp "store_paged" (fun path ->
      Store.write ~page_size:16 ~compress:true (tiny_store ()) path;
      let s = Store.open_file ~mode:Store.Paged ~pool_pages:2 path in
      let col = Store.ints s "col" in
      Alcotest.(check bool) "paged column" true (Store.is_paged col);
      Alcotest.(check int) "length" 7 (Store.length col);
      for i = 0 to 6 do
        Alcotest.(check int)
          (Printf.sprintf "element %d" i)
          [| 1; 2; 3; 42; 1000; -7; max_int |].(i)
          (Store.get col i)
      done;
      Alcotest.(check bool) "pages were read" true (Store.page_reads s > 0);
      let reads = Store.page_reads s in
      (* Reading the column in full fetches its block again, through the
         pool, which still holds its pages. *)
      ignore (Store.to_array col);
      Alcotest.(check bool) "pool hits recorded" true (Store.page_hits s > 0);
      Alcotest.(check int) "no page read again" reads (Store.page_reads s);
      Alcotest.(check (list int))
        "to_array materialises" [ 9; 8; 7 ]
        (Array.to_list (Store.to_array (Store.ints s "flat")));
      Alcotest.(check string) "blobs are always resident" "hello, store"
        (Store.blob s "blob");
      Store.close s;
      (* Paged reads after close must raise, never crash. *)
      match Store.get col 3 with
      | _ -> Alcotest.fail "read after close succeeded"
      | exception Invalid_argument _ -> ())

(* [drop_pool] is a cold restart: after it, a query reads its pages from
   disk again — a positive count, and the same count every time.  A
   compressed column's decoded-block cache must be dropped too, or the
   second cold run would read fewer pages. *)
let test_drop_pool_cold_reads () =
  let docs = Xdatagen.Dblp_gen.generate 200 in
  let index = Xseq.build docs in
  let q = Xseq.Xpath.parse "/inproceedings[year='1999']/author" in
  let want = Xseq.query index q in
  List.iter
    (fun format ->
      with_temp "xseq_drop_pool" (fun path ->
          Containers.save format index path;
          let paged = Xseq.load ~mode:Store.Paged ~pool_pages:4096 path in
          let store = Option.get (Xseq.backing_store paged) in
          Fun.protect
            ~finally:(fun () -> Store.close store)
            (fun () ->
              let reads_of f =
                let before = Store.page_reads store in
                Alcotest.(check (list int)) "answers" want (f ());
                Store.page_reads store - before
              in
              let cold () =
                Store.drop_pool store;
                reads_of (fun () -> Xseq.query paged q)
              in
              let first = cold () in
              let second = cold () in
              let name = Containers.name format in
              Alcotest.(check bool) (name ^ ": reads pages") true (first > 0);
              Alcotest.(check int) (name ^ ": same count twice") first second;
              Alcotest.(check int)
                (name ^ ": a warm pool reads nothing")
                0
                (reads_of (fun () -> Xseq.query paged q)))))
    Containers.[ Plain; Compressed ]

(* Compressed (xseqcol2) round trip: packed int columns and LZ blobs
   survive resident (decoded into flat buffers) and paged reopening,
   element for element, including full-range values whose deltas
   wrap. *)
let test_roundtrip_compressed () =
  with_temp "store_c2" (fun path ->
      Store.write ~page_size:16 ~compress:true (tiny_store2 ()) path;
      Alcotest.(check string)
        "compressed magic" "xseqcol2"
        (String.sub (read_all path) 0 8);
      List.iter
        (fun (what, mode, pool_pages) ->
          let s = Store.open_file ~mode ~pool_pages path in
          Alcotest.(check bool)
            (what ^ " reports Col2") true
            (Store.file_format s = Store.Col2);
          Alcotest.(check (list int))
            (what ^ " extremes int_array")
            (Array.to_list extremes)
            (Array.to_list (Store.int_array s "col"));
          (match mode with
           | Store.Paged ->
             let col = Store.ints s "col" in
             Array.iteri
               (fun i want ->
                 Alcotest.(check int)
                   (Printf.sprintf "%s extreme element %d" what i)
                   want (Store.get col i))
               extremes
           | Store.Resident -> (
             (* A resident column is 32-bit: [max_int] fails its
                decoding. *)
             match Store.ints s "col" with
             | _ -> Alcotest.fail "a resident column held max_int"
             | exception Invalid_argument msg ->
               Alcotest.(check string) "diagnostic"
                 "Store: inconsistent snapshot: region \"col\" element 5 \
                  (4611686018427387903) does not fit in 32 bits"
                 msg));
          let flat = Store.ints s "flat" in
          (* Random probes — the paged reader must assemble block bytes
             across page boundaries. *)
          List.iter
            (fun i ->
              Alcotest.(check int)
                (Printf.sprintf "%s spread element %d" what i)
                spread.(i) (Store.get flat i))
            [ 0; 1; 127; 128; 129; 255; 256; 399 ];
          Alcotest.(check (list int))
            (what ^ " spread to_array")
            (Array.to_list spread)
            (Array.to_list (Store.to_array flat));
          Alcotest.(check string)
            (what ^ " blob") (Store.blob (tiny_store2 ()) "blob" |> Fun.id)
            (Store.blob s "blob");
          (* Compression must actually have happened somewhere. *)
          let logical, stored =
            List.fold_left
              (fun (l, st) r -> (l + r.Store.r_bytes, st + r.Store.r_stored))
              (0, 0) (Store.regions s)
          in
          Alcotest.(check bool)
            (what ^ " stored < logical") true (stored < logical);
          (match mode with
          | Store.Paged ->
            Alcotest.(check bool)
              (what ^ " pages were read") true
              (Store.page_reads s > 0)
          | Store.Resident -> ());
          Store.close s;
          match mode with
          | Store.Paged -> (
            match Store.get flat 200 with
            | _ -> Alcotest.fail (what ^ ": read after close succeeded")
            | exception Invalid_argument _ -> ())
          | Store.Resident -> ())
        [
          ("resident", Store.Resident, 256);
          ("paged", Store.Paged, 2);
          ("paged-big-pool", Store.Paged, 64);
        ])

(* A resident load of an xseqcol2 snapshot, plain or compressed, holds
   its label columns and document table as flat 32-bit buffers (four
   bytes an element outside the heap, as a build does), a paged load
   none; both equal the built index's columns element for element. *)
let test_resident_columns_flat () =
  let index = Xseq.build (Xdatagen.Dblp_gen.generate ~seed:6 300) in
  let built = Xseq.labeled index in
  let bytes t = Xindex.Labeled.column_bytes (Xseq.labeled t) in
  List.iter
    (fun kind ->
      with_temp "store_flat" (fun path ->
          Containers.save kind index path;
          let resident = Xseq.load path in
          let paged = Xseq.load ~mode:Store.Paged ~pool_pages:64 path in
          let what = Containers.name kind in
          Alcotest.(check int)
            (what ^ ": resident columns are flat")
            (Xindex.Labeled.column_bytes built)
            (bytes resident);
          Alcotest.(check int) (what ^ ": paged columns are not") 0
            (bytes paged);
          let columns t = Fingerprint.of_labeled (Xseq.labeled t) in
          let want = Fingerprint.of_labeled built in
          Alcotest.(check bool) (what ^ ": resident = built") true
            (String.equal want (columns resident));
          Alcotest.(check bool) (what ^ ": paged = built") true
            (String.equal want (columns paged));
          Option.iter Store.close (Xseq.backing_store paged)))
    Containers.[ Plain; Compressed ]

let test_api_errors () =
  let s = Store.memory () in
  Store.add_int_array s "dup" [| 1 |];
  (match Store.add_int_array s "dup" [| 2 |] with
  | () -> Alcotest.fail "duplicate region accepted"
  | exception Invalid_argument _ -> ());
  (match Store.add_blob s (String.make 40 'x') "b" with
  | () -> Alcotest.fail "oversized region name accepted"
  | exception Invalid_argument _ -> ());
  (match Store.ints s "missing" with
  | _ -> Alcotest.fail "missing region found"
  | exception Invalid_argument _ -> ());
  with_temp "store_badpage" (fun path ->
      match Store.write ~page_size:12 s path with
      | () -> Alcotest.fail "page size 12 accepted"
      | exception Invalid_argument _ -> ())

(* --- corruption ---------------------------------------------------------- *)

(* Every container runs the same batteries: the plain store, written as
   xseqcol1 and as plain xseqcol2, and the compressed one whose regions
   go through every xsuccinct codec. *)
let battery_write format path =
  let store =
    match format with
    | Containers.Col1 | Containers.Plain -> tiny_store ()
    | Containers.Compressed -> tiny_store2 ()
  in
  Containers.write ~page_size:16 format store path

(* Every byte of the file is covered by a checksum (header + per-region),
   so flipping any single bit anywhere must be rejected at open. *)
let test_bitflip_every_byte format () =
  with_temp "store_flip" (fun path ->
      battery_write format path;
      let pristine = read_all path in
      let n = String.length pristine in
      with_temp "store_flip_mut" (fun mut ->
          for i = 0 to n - 1 do
            let b = Bytes.of_string pristine in
            Bytes.set b i
              (Char.chr (Char.code pristine.[i] lxor (1 lsl (i mod 8))));
            write_all mut (Bytes.to_string b);
            match Store.open_file mut with
            | s ->
              Store.close s;
              Alcotest.failf "%s: bit flip at byte %d went undetected"
                (Containers.name format) i
            | exception Invalid_argument _ -> ()
          done))

let test_truncations format () =
  with_temp "store_trunc" (fun path ->
      battery_write format path;
      let pristine = read_all path in
      let n = String.length pristine in
      with_temp "store_trunc_mut" (fun mut ->
          let lens = List.init ((n + 6) / 7) (fun k -> k * 7) in
          List.iter
            (fun len ->
              write_all mut (String.sub pristine 0 len);
              match Store.open_file mut with
              | s ->
                Store.close s;
                Alcotest.failf "%s: truncation to %d bytes went undetected"
                  (Containers.name format) len
              | exception Invalid_argument _ -> ())
            (lens @ [ n - 1 ])))

let check_diagnostic format name mutate expect =
  with_temp ("store_" ^ name) (fun path ->
      battery_write format path;
      let b = Bytes.of_string (read_all path) in
      mutate b;
      write_all path (Bytes.to_string b);
      match Store.open_file path with
      | s ->
        Store.close s;
        Alcotest.failf "%s not rejected" name
      | exception Invalid_argument msg ->
        if
          not
            (List.exists
               (fun needle ->
                 let rec find i =
                   i + String.length needle <= String.length msg
                   && (String.sub msg i (String.length needle) = needle
                      || find (i + 1))
                 in
                 find 0)
               expect)
        then Alcotest.failf "%s: diagnostic %S names none of %s" name msg
               (String.concat "/" expect))

let test_diagnostics format () =
  check_diagnostic format "bad magic"
    (fun b -> Bytes.set b 0 'Z')
    [ "magic" ];
  check_diagnostic format "wrong version"
    (fun b -> Bytes.set_int32_le b 8 99l)
    [ "version" ];
  check_diagnostic format "flipped region byte"
    (fun b -> Bytes.set b (Bytes.length b - 1) '\xff')
    [ "checksum" ]

(* Flips one bit of the file in place, as a disk might under an open
   store: the open descriptor sees the change. *)
let flip_in_place path pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      if Unix.read fd b 0 1 <> 1 then Alcotest.fail "short read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then Alcotest.fail "short write")

(* A region read after the open is checksummed again before anything
   uses it.  A byte of the record region flipped once the store is open
   is reported as that region's checksum mismatch, by [Store.blob] and by
   a loaded index's [document]: never a decoder's complaint (the LZ
   decompressor's, the record decoder's), which would mean the bytes were
   decoded first. *)
let test_flip_after_open () =
  let index = Xseq.build (Xdatagen.Dblp_gen.generate ~seed:8 200) in
  List.iter
    (fun format ->
      with_temp "store_flip_open" (fun path ->
          Containers.save format index path;
          let store = Store.open_file path in
          let loaded = Xseq.load path in
          let docs =
            List.find (fun r -> r.Store.r_name = "docs") (Store.regions store)
          in
          flip_in_place path (docs.Store.r_offset + (docs.Store.r_stored / 2));
          let mismatch what f =
            match f () with
            | _ ->
              Alcotest.failf "%s %s: a flipped region was read back"
                (Containers.name format) what
            | exception Invalid_argument msg ->
              Alcotest.(check string)
                (Containers.name format ^ " " ^ what)
                "Store: region \"docs\" checksum mismatch" msg
          in
          mismatch "blob" (fun () -> Store.blob store "docs");
          mismatch "document" (fun () -> Xseq.document loaded 0);
          Store.close store;
          Option.iter Store.close (Xseq.backing_store loaded)))
    Containers.[ Col1; Plain; Compressed ]

(* A load checks each region once, by the read that first uses it, and
   the regions it never reads at its end.  A snapshot of a few records
   with one region no loader reads ([junk]), one bit flipped in a byte
   (every 7th, or 23rd): the load fails, resident or paged.  A flipped byte inside a region is
   reported as that region's checksum mismatch, whatever decoding its
   bytes would have made of them. *)
let test_load_checks_every_byte () =
  let index = Xseq.build (Xdatagen.Dblp_gen.generate ~seed:3 4) in
  List.iter
    (fun (format, mode, step) ->
      with_temp "store_load_flip" (fun path ->
          with_temp "store_load_flip_src" (fun src ->
              Containers.save format index src;
              let s = Store.open_file src and m = Store.memory () in
              List.iter
                (fun r ->
                  let name = r.Store.r_name in
                  match r.Store.r_kind with
                  | `Ints -> Store.add_int_array m name (Store.int_array s name)
                  | `Blob -> Store.add_blob m name (Store.blob s name))
                (Store.regions s);
              Store.close s;
              Store.add_blob m "junk" (String.make 300 'j');
              Containers.write format m path);
          let pristine = read_all path in
          let s = Store.open_file path in
          let regions = Store.regions s in
          Store.close s;
          let region_at i =
            List.find_opt
              (fun r ->
                i >= r.Store.r_offset
                && i < r.Store.r_offset + (r.Store.r_pages * Store.page_size s))
              regions
          in
          let what = Containers.name format in
          (let t = Xseq.load ~mode path in
           Option.iter Store.close (Xseq.backing_store t));
          let i = ref 0 in
          while !i < String.length pristine do
            let b = Bytes.of_string pristine in
            Bytes.set b !i (Char.chr (Char.code pristine.[!i] lxor (1 lsl (!i mod 8))));
            write_all path (Bytes.to_string b);
            (match Xseq.load ~mode path with
             | t ->
               Option.iter Store.close (Xseq.backing_store t);
               Alcotest.failf "%s: bit flip at byte %d loaded" what !i
             | exception Invalid_argument msg -> (
               match region_at !i with
               | None -> ()
               | Some r ->
                 let mismatch =
                   Printf.sprintf "region %S checksum mismatch" r.Store.r_name
                 in
                 let n = String.length mismatch and m = String.length msg in
                 if m < n || String.sub msg (m - n) n <> mismatch then
                   Alcotest.failf "%s: bit flip at byte %d of %s: %S" what !i
                     r.Store.r_name msg));
            i := !i + step
          done))
    [
      (Containers.Plain, Store.Resident, 7);
      (Containers.Plain, Store.Paged, 23);
      (Containers.Compressed, Store.Resident, 23);
      (Containers.Col1, Store.Resident, 23);
    ]

(* --- xsuccinct codecs ----------------------------------------------------- *)

module Varint = Xsuccinct.Varint
module Packed = Xsuccinct.Packed
module Frontcode = Xsuccinct.Frontcode
module Lz = Xsuccinct.Lz

let fetch_of s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "fetch out of range"
  else String.sub s off len

let test_varint_extremes () =
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Varint.add_uvarint buf (Varint.zigzag v);
      let s = Buffer.contents buf in
      let pos = ref 0 in
      let got =
        Varint.unzigzag
          (Varint.uvarint ~name:"t" s ~pos ~limit:(String.length s))
      in
      Alcotest.(check int) (string_of_int v) v got;
      Alcotest.(check int) "consumed exactly" (String.length s) !pos)
    [ 0; 1; -1; 63; 64; -64; -65; 8191; max_int; min_int; min_int + 1 ];
  match Varint.uvarint ~name:"t" "\xff" ~pos:(ref 0) ~limit:1 with
  | _ -> Alcotest.fail "truncated varint accepted"
  | exception Invalid_argument _ -> ()

let test_packed_unit () =
  let xs = Array.append extremes (Array.init 300 (fun i -> (i * i) - 7)) in
  let s = Packed.encode ~block:16 xs in
  let p =
    Packed.parse ~name:"t" ~fetch:(fetch_of s) ~length:(String.length s)
  in
  Alcotest.(check int) "count" (Array.length xs) (Packed.count p);
  Alcotest.(check (list int))
    "decode_all inverts encode" (Array.to_list xs)
    (Array.to_list (Packed.decode_all p ~fetch:(fetch_of s)));
  (* Skip pointers answer block-first probes from the resident table. *)
  for b = 0 to Packed.nblocks p - 1 do
    Alcotest.(check int)
      (Printf.sprintf "first of block %d" b)
      xs.(b * 16) (Packed.first p b)
  done;
  match
    Packed.parse ~name:"t"
      ~fetch:(fetch_of (String.sub s 0 (String.length s - 1)))
      ~length:(String.length s - 1)
  with
  | _ -> Alcotest.fail "truncated packed column accepted"
  | exception Invalid_argument _ -> ()

(* The names a decoded blob and its offsets spell. *)
let frontcode_names ~name s =
  let blob, off = Frontcode.decode ~name s in
  let at = Xutil.I32.get off in
  Array.init (Xutil.I32.length off - 1) (fun i ->
      String.sub blob (at i) (at (i + 1) - at i))

(* [Frontcode.encode] of [names], in their order, read from a blob that
   holds them back to front: the order vector is what puts them in
   order. *)
let frontcode_encode names =
  let n = Array.length names in
  let held = Array.init n (fun j -> names.(n - 1 - j)) in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun j s -> off.(j + 1) <- off.(j) + String.length s) held;
  Frontcode.encode
    (Bytes.of_string (String.concat "" (Array.to_list held)))
    (Xutil.I32.of_array off)
    (Xutil.I32.of_array (Array.init n (fun i -> n - 1 - i)))

let test_frontcode_unit () =
  let names = [| ""; "a"; "ab"; "ab"; "abc"; "abd"; "b" |] in
  let s = frontcode_encode names in
  Alcotest.(check (array string))
    "decode inverts encode" names
    (frontcode_names ~name:"t" s);
  List.iter
    (fun unsorted ->
      match frontcode_encode unsorted with
      | _ -> Alcotest.fail "unsorted input accepted"
      | exception Invalid_argument _ -> ())
    [ [| "b"; "a" |]; [| "ab"; "a" |]; [| "a"; "b"; "ba"; "b" |] ];
  match Frontcode.decode ~name:"t" (String.sub s 0 (String.length s - 1)) with
  | _ -> Alcotest.fail "truncated frontcode accepted"
  | exception Invalid_argument _ -> ()

let test_lz_unit () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "round trip (%d bytes)" (String.length s))
        s
        (Lz.decompress ~name:"t" (Lz.compress s)))
    [
      "";
      "a";
      String.make 10_000 'x';
      String.concat "" (List.init 200 (fun i -> Printf.sprintf "<e%d>" (i mod 7)));
      String.init 997 (fun i -> Char.chr (i * 131 mod 256));
    ];
  (* raw_len promises 5 bytes but no tokens follow. *)
  match Lz.decompress ~name:"t" "\x05\x00\x00\x00" with
  | _ -> Alcotest.fail "truncated lz stream accepted"
  | exception Invalid_argument _ -> ()

(* A record region as snapshot versions 1 and 2 wrote it: records in
   pre-order, each node a u8 kind (0 element, 1 value), the u32 LE
   length and bytes of its name or text, and an element's u32 LE child
   count. *)
let spelled_region docs =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  let rec node = function
    | T.Element (name, cs) ->
      Buffer.add_uint8 b 0;
      str name;
      Buffer.add_int32_le b (Int32.of_int (List.length cs));
      List.iter node cs
    | T.Value s ->
      Buffer.add_uint8 b 1;
      str s
  in
  Array.iter node docs;
  Buffer.to_bytes b

(* The compressor's output is pinned byte for byte: snapshots written
   before and after any change to its internals must be identical.  The
   record regions are a fixed DBLP and XMark corpus in the version-2
   layout, which the test spells out itself, so a change of the record
   layout cannot move them; the incompressible input comes from a
   fixed xorshift stream, so no library generator can move it. *)

let xorshift_bytes n =
  let x = ref 0x2545F491 in
  String.init n (fun _ ->
      x := !x lxor ((!x lsl 13) land 0xFFFFFFFF);
      x := !x lxor (!x lsr 17);
      x := !x lxor ((!x lsl 5) land 0xFFFFFFFF);
      Char.chr (!x land 0xff))

(* Inputs at the edges of the match finder: a match that ends on the
   last byte, matches and single-byte runs just around one and two
   8-byte words, a pattern that overlaps itself for its whole length,
   and inputs barely long enough to hold a match. *)
let lz_edge_cases =
  let p = xorshift_bytes 100 in
  let lengths = [ 7; 8; 9; 15; 16; 17 ] in
  let tiny = List.init 9 (fun i -> i + 4) in
  let digests =
    [
      "788424100a1da8ee549f9cd2f089a074"; "6b4352dad00d9e3a5b392cf3f8ea37d2";
      "b5a3d4e9ecae9273549e58b2807f8d2b";
      "90fbb31119900f585d0165ebf1ac0885"; "214d380adc551ea6ca2a92b48c45e04b";
      "cf0e5f36bc83e78dc9453693aed228a7"; "3ea2ac477a339e142d5924832f057874";
      "d3c94c6710ba47d4ad081fb106f72385"; "e60452d0976ca9a173108d92a6ee5074";
      "e8d6486ef4eae8cd6e326b7026d2cfc3"; "fd4cc6ff61f4ddf5102d38a570e78455";
      "ee175f687547a8b9f05ae2395636fe00"; "eec083405638dfe4e9867a72bfc9cf49";
      "300897e7af4e2fc4e364974dc35e3c90"; "b04b21018071b255cc00f8ce4d159c7d";
      "4f2c701434e0bd6e17978834136213b2";
      "ea052df49eaeaf411d53d17ade69ff2f"; "295d87e421a7a080dfa5c765e6c6bb42";
      "373b3f1a878934fde215e6fc7faae944"; "f2a779df0afee5071850d7723c90b751";
      "dfe851d493789862be28fc84a84ee6da"; "3620b41e64d4c4ee8f7322d2b855af65";
      "5eafbbeb87fe3b5fdbe32c99ff6e62aa"; "892893fd5785531c6cbd601b7b23bd9a";
      "b0e7ea53e5779f820f45fd8c3e70e7a0";
      "2c32503f54840d538ab0aa7eab5fb5de"; "a284af2c1b89df21ca48513bc197a8cf";
      "55ec7ed8c2993f4ca70b949293041444"; "845df07500d2094687aa7e3602cfecb3";
      "75c85d50ebdb88affef650db510a6968"; "16a5418df95e8d79366427264047b621";
      "61ae0970f594bc95e61fb3e11668b670"; "4be762d57021a745fb20f76076b6d648";
      "58ee5696aadf54b0af979d1c63f120c5";
    ]
  in
  let inputs =
    [
      ("match ends on the last byte", p ^ "|" ^ p);
      ("8-byte match ends on the last byte", "abcdefgh|abcdefgh");
      ("adjacent repeat", p ^ p);
    ]
    @ List.map
        (fun k ->
          ( Printf.sprintf "match of %d" k,
            String.sub p 0 32 ^ "|" ^ String.sub p 0 k ^ "|tail" ))
        lengths
    @ List.map
        (fun k ->
          ( Printf.sprintf "run of %d" k,
            "x" ^ String.make k 'a' ^ "y" ^ String.make k 'a' ^ "z" ))
        lengths
    @ [ ("ab x 5000", String.concat "" (List.init 5000 (fun _ -> "ab"))) ]
    @ List.map
        (fun k -> (Printf.sprintf "%d bytes, period 3" k, String.sub "abcabcabcabc" 0 k))
        tiny
    @ List.map
        (fun k -> (Printf.sprintf "%d bytes, one byte" k, String.make k 'a'))
        tiny
  in
  List.map2 (fun (what, input) want -> (what, input, want)) inputs digests

let test_lz_golden () =
  let cases =
    [
      ("empty", "", "f1d3ff8443297732862df21dc4e57262");
      ("3 bytes", "abc", "f771429754d2fdb4e9936f76dca0d927");
      ("incompressible", xorshift_bytes 65_536, "bce981211499c043a87879947351969a");
      ( "dblp records",
        Bytes.to_string
          (spelled_region (Xdatagen.Dblp_gen.generate ~seed:7 1500)),
        "b5dbedb9945b6041732a713c4cc42c6f" );
      ( "xmark records",
        Bytes.to_string
          (spelled_region
             (Xdatagen.Xmark_gen.generate ~seed:7 ~identical_siblings:true 300)),
        "43d3926e05393ea22285231a2187b06f" );
    ]
    @ [
        (* Over a MiB: the candidate positions sit in per-bucket rings
           instead of a chain, and must come out the same. *)
        ( "records over a MiB",
          Bytes.to_string
            (spelled_region (Xdatagen.Dblp_gen.generate ~seed:7 6000)),
          "11e700fc6c49ea0946d3bba17cc3cf1d" );
        ( "one byte over a MiB",
          String.make 1_100_000 'a',
          "a8707f75fcfa08d996b1d55945fc6950" );
      ]
    @ lz_edge_cases
  in
  List.iter
    (fun (what, input, want) ->
      let z = Lz.compress input in
      Alcotest.(check string) (what ^ ": round trip") input (Lz.decompress ~name:what z);
      Alcotest.(check string)
        (Printf.sprintf "%s: output digest (%d -> %d bytes)" what (String.length input)
           (String.length z))
        want
        (Digest.to_hex (Digest.string z)))
    cases

(* Packed columns are pinned byte for byte too: negative firsts (a
   dictionary's -1 root parent), full-range deltas that wrap, a partial
   last block, one element, none, and a long sorted run. *)
let test_packed_golden () =
  let cases =
    [
      ("empty", [||], 128, "62dc4f6b9f5ed1f85731f6a54a7bc8f6");
      ("one", [| 7 |], 128, "0c4dcb31032b9333390713f8b4bb4492");
      ("root parent", Array.init 300 (fun i -> i - 1), 128, "c6829673391cfc71ddf36f22eede5bd6");
      ( "full range",
        [| max_int; min_int; 0; -1; 1; min_int; max_int; 42 |],
        3,
        "0f2db1c3a329ae9c1116fe27b1c99469" );
      ("sorted labels", Array.init 5000 (fun i -> (i * 37) + (i * i mod 11)), 128, "50c514fb6597800e25a8ebbdc0780582");
      ( "xorshift",
        Array.init 1000 (fun i -> Char.code (xorshift_bytes 1000).[i] - 100),
        50,
        "7794cca33954c0edfbd7de3c314f3119" );
    ]
  in
  List.iter
    (fun (what, xs, block, want) ->
      let s = Packed.encode ~block xs in
      Alcotest.(check string)
        (Printf.sprintf "%s: output digest (%d bytes)" what (String.length s))
        want
        (Digest.to_hex (Digest.string s)))
    cases

let prop_packed_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"packed: decode_all inverts encode"
       (QCheck.make
          Gen.(pair (array_size (int_range 0 400) int) (int_range 1 50)))
       (fun (xs, block) ->
         let s = Packed.encode ~block xs in
         let p =
           Packed.parse ~name:"q" ~fetch:(fetch_of s)
             ~length:(String.length s)
         in
         Packed.decode_all p ~fetch:(fetch_of s) = xs))

(* A serialized column fed to the incremental decoder in pieces cut at
   [cuts] (sizes, cycled), its elements collected. *)
let decode_in_pieces ~count s cuts =
  let out = Array.make count 0 in
  let d =
    Packed.decoder ~name:"q" ~length:(String.length s) ~count (fun i x ->
        out.(i) <- x)
  in
  let b = Bytes.of_string s in
  let rec go at k =
    if at < Bytes.length b then begin
      let n = min (Bytes.length b - at) (List.nth cuts (k mod List.length cuts)) in
      Packed.feed d b at n;
      go (at + n) (k + 1)
    end
  in
  go 0 0;
  Packed.finish d;
  out

let gen_cuts = Gen.(list_size (int_range 1 5) (int_range 1 40))

let prop_packed_pieces =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"packed: the incremental decoder inverts encode, in any pieces"
       (QCheck.make
          Gen.(
            triple (array_size (int_range 0 400) int) (int_range 1 50) gen_cuts))
       (fun (xs, block, cuts) ->
         decode_in_pieces ~count:(Array.length xs) (Packed.encode ~block xs)
           cuts
         = xs))

(* One flipped byte anywhere in a serialized column: the incremental
   decoder accepts it exactly when [parse] and [decode_all] do, with the
   same elements, unless the flip changed the element count, which the
   incremental decoder is told. *)
let prop_packed_pieces_reject =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400
       ~name:"packed: the incremental decoder rejects what decode_all rejects"
       (QCheck.make
          Gen.(
            quad
              (array_size (int_range 1 300) (int_range (-100_000) 100_000))
              (int_range 1 20) gen_cuts
              (pair (int_range 0 1_000_000) (int_range 1 255))))
       (fun (xs, block, cuts, (at, mask)) ->
         let s = Bytes.of_string (Packed.encode ~block xs) in
         let at = at mod Bytes.length s in
         Bytes.set s at (Char.chr (Char.code (Bytes.get s at) lxor mask));
         let s = Bytes.to_string s in
         let whole =
           match
             Packed.decode_all ~fetch:(fetch_of s)
               (Packed.parse ~name:"q" ~fetch:(fetch_of s)
                  ~length:(String.length s))
           with
           | a -> Some a
           | exception Invalid_argument _ -> None
         in
         let count = Array.length xs in
         match (whole, decode_in_pieces ~count s cuts) with
         | Some a, b -> a = b
         | None, _ -> false
         | exception Invalid_argument _ -> (
           match whole with Some a -> Array.length a <> count | None -> true)))

let prop_frontcode_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"frontcode: decode inverts encode"
       (QCheck.make
          Gen.(
            array_size (int_range 0 60)
              (string_size ~gen:printable (int_range 0 10))))
       (fun names ->
         Array.sort compare names;
         frontcode_names ~name:"q" (frontcode_encode names) = names))

let prop_lz_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"lz: decompress inverts compress"
       (QCheck.make
          Gen.(
            string_size
              ~gen:(map Char.chr (int_range 97 101))
              (int_range 0 2000)))
       (fun s -> Lz.decompress ~name:"q" (Lz.compress s) = s))

(* --- backend-equivalence oracle ------------------------------------------ *)

let tags = [| "a"; "b"; "c"; "d" |]
let vals = [| "v0"; "v1"; "v2" |]

let doc_gen : T.t Gen.t =
  let open Gen in
  let rec tree depth st =
    let fanout = if depth >= 4 then 0 else int_bound (4 - depth) st in
    let kids =
      List.init fanout (fun _ ->
          if depth >= 1 && int_bound 3 st = 0 then T.text (oneofa vals st)
          else tree (depth + 1) st)
    in
    T.elt (oneofa tags st) kids
  in
  tree 0

let case_gen = Gen.pair Gen.(list_size (int_range 1 12) doc_gen) (Gen.int_bound 10_000)

let case_print (docs, seed) =
  Printf.sprintf "seed=%d docs=[%s]" seed
    (String.concat "; " (List.map (Format.asprintf "%a" T.pp) docs))

let queries_of ~seed docs =
  let opts =
    {
      Xdatagen.Query_gen.size = 5;
      star_prob = 0.2;
      desc_prob = 0.2;
      value_prob = 0.5;
      wide = false;
    }
  in
  Xdatagen.Query_gen.generate ~seed ~opts docs 6

type probe_trace = {
  ids : int list;
  probes : int;
  candidates : int;
  rejected : int;
  matches : int;
}

let run_variant labeled ~strategy ~value_mode q =
  match Xquery.Engine.compile ~strategy ~value_mode labeled q with
  | exception Xquery.Instantiate.Too_many _ -> None
  | compiled ->
    let stats = Xquery.Matcher.create_stats () in
    let ids = Xquery.Matcher.run_collect ~stats labeled compiled in
    Some
      {
        ids;
        probes = stats.Xquery.Matcher.probes;
        candidates = stats.Xquery.Matcher.candidates;
        rejected = stats.Xquery.Matcher.rejected;
        matches = stats.Xquery.Matcher.matches;
      }

(* Every shape an index is served in — the built index's flat buffers
   (the reference), and the plain and the compressed snapshot each
   reloaded resident (flat buffers decoded from packed columns) and
   paged through the buffer pool — must produce identical ids and
   identical matcher counters; and the ids must agree with the
   brute-force embedding oracle. *)
let prop_backend_oracle (docs, seed) =
  let docs = Array.of_list docs in
  let index = Xseq.build docs in
  let path = Filename.temp_file "xseq_oracle" ".idx" in
  let zpath = Filename.temp_file "xseq_oracle" ".idxz" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; zpath ])
    (fun () ->
      Xseq.save index path;
      Xseq.save ~compress:true index zpath;
      let resident = Xseq.load path in
      let paged = Xseq.load ~mode:Store.Paged ~pool_pages:4 path in
      let zresident = Xseq.load zpath in
      let zpaged = Xseq.load ~mode:Store.Paged ~pool_pages:4 zpath in
      let variant name t =
        (name, Xseq.labeled t, Xseq.strategy t, Xseq.value_mode t)
      in
      let variants =
        [
          variant "built" index;
          variant "plain-resident" resident;
          variant "plain-paged" paged;
          variant "compressed-resident" zresident;
          variant "compressed-paged" zpaged;
        ]
      in
      let close t = Option.iter Store.close (Xseq.backing_store t) in
      Fun.protect ~finally:(fun () -> close paged; close zpaged) @@ fun () ->
      List.for_all
        (fun q ->
          let runs =
            List.map
              (fun (name, labeled, strategy, value_mode) ->
                (name, run_variant labeled ~strategy ~value_mode q))
              variants
          in
          match runs with
          | (_, reference) :: rest ->
            let agree =
              List.for_all (fun (_, r) -> r = reference) rest
              &&
              match reference with
              | None -> true
              | Some t -> t.ids = Xquery.Embedding.filter q docs
            in
            if not agree then
              QCheck.Test.fail_reportf "backends diverged on %s: %s"
                (Pattern.to_string q)
                (String.concat "; "
                   (List.map
                      (fun (name, r) ->
                        match r with
                        | None -> name ^ "=<too many>"
                        | Some t ->
                          Printf.sprintf
                            "%s={ids=[%s] probes=%d cand=%d rej=%d match=%d}"
                            name
                            (String.concat ","
                               (List.map string_of_int t.ids))
                            t.probes t.candidates t.rejected t.matches)
                      runs))
            else true
          | [] -> true)
        (queries_of ~seed docs))

(* Snapshot round trip across both value modes and every container: a
   reloaded index — resident from any, or paged from an xseqcol2 one —
   answers exactly like the one that was saved. *)
let test_roundtrip_value_modes () =
  let docs = Xdatagen.Dblp_gen.generate 60 in
  List.iter
    (fun (name, value_mode, format) ->
      let index =
        Xseq.build ~config:{ Xseq.default_config with value_mode } docs
      in
      let queries = queries_of ~seed:17 docs in
      with_temp ("xseq_vm_" ^ name) (fun path ->
          Containers.save format index path;
          let resident = Xseq.load path in
          let paged =
            match format with
            | Containers.Plain | Containers.Compressed ->
              Some (Xseq.load ~mode:Store.Paged ~pool_pages:16 path)
            | Containers.Col1 -> None
          in
          List.iter
            (fun q ->
              let want = Xseq.query index q in
              Alcotest.(check (list int))
                (Printf.sprintf "%s resident %s" name (Pattern.to_string q))
                want (Xseq.query resident q);
              Option.iter
                (fun paged ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s paged %s" name (Pattern.to_string q))
                    want (Xseq.query paged q))
                paged)
            queries;
          Option.iter
            (fun paged ->
              match Xseq.backing_store paged with
              | Some store ->
                Alcotest.(check bool)
                  "paged index actually read pages" true
                  (Store.page_reads store > 0)
              | None -> Alcotest.fail "paged index lost its store")
            paged))
    [
      ("hashed", Sequencing.Encoder.Hashed, Containers.Plain);
      ("text", Sequencing.Encoder.Text, Containers.Plain);
      ("hashed-z", Sequencing.Encoder.Hashed, Containers.Compressed);
      ("text-z", Sequencing.Encoder.Text, Containers.Compressed);
      ("hashed-col1", Sequencing.Encoder.Hashed, Containers.Col1);
      ("text-col1", Sequencing.Encoder.Text, Containers.Col1);
    ]

(* Loading rejects snapshots whose regions disagree with each other even
   when every checksum is valid.  [write_tampered region f path] writes
   to [path] a snapshot of a small index with [f] applied to one int
   region (with [~source], a copy of that snapshot file instead);
   [tampered region f] expects the load of that file to fail with the
   diagnostic [want]. *)
let copy_file ?(format = Containers.Plain) source ~ints ~blob path =
  let s = Store.memory () in
  let src = Store.open_file source in
  List.iter
    (fun r ->
      match (r.Store.r_name, r.Store.r_kind) with
      | name, `Ints ->
        let m = Store.int_array src name in
        ints name m;
        Store.add_int_array s name m
      | name, `Blob -> Store.add_blob s name (blob name (Store.blob src name)))
    (Store.regions src);
  Containers.write format s path;
  Store.close src

let copy_snapshot ?(format = Containers.Plain) index ~ints ~blob path =
  let tmp = Filename.temp_file "xseq_src" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Containers.save format index tmp;
      copy_file ~format tmp ~ints ~blob path)

let write_tampered ?format ?source region f path =
  let ints name m = if name = region then f m in
  let blob _ s = s in
  match source with
  | Some source -> copy_file ?format source ~ints ~blob path
  | None ->
    let index = Xseq.build (Xdatagen.Dblp_gen.generate 10) in
    copy_snapshot ?format index path ~ints ~blob

let load_fails ?(prefix = "Labeled.of_store: inconsistent snapshot: ") path
    ~want =
  match Xseq.load path with
  | _ -> Alcotest.fail "inconsistent snapshot accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "diagnostic names the inconsistency"
      (prefix ^ want) msg

let tampered ?format ?source region f ~want =
  with_temp "xseq_inconsistent" (fun path ->
      write_tampered ?format ?source region f path;
      load_fails path ~want)

(* An xseqcol1 snapshot written before every dictionary was compact: its
   dictionary spells each entry's designator out ([dict_kind],
   [dict_name_off], [dict_names]). *)
let spelled_fixture =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "data")
    "v2_dblp.xseq"

(* A lying node count, or a lying link length, breaks the agreement of
   the link lengths' sum, the link columns' length and the node count;
   a link directory naming one path twice is rejected too. *)
let test_inconsistent_snapshot () =
  tampered "meta" (fun m -> m.(0) <- m.(0) + 1) ~want:"link column sizes";
  tampered "link_len"
    (fun m -> m.(0) <- m.(0) + 1)
    ~want:"link column sizes";
  tampered "link_len" (fun m -> m.(0) <- -1) ~want:"link length out of range";
  (* Two links naming one path: the later would shadow the earlier in
     the path-to-link map and drop its entries from every answer. *)
  tampered "link_path" (fun m -> m.(1) <- m.(0)) ~want:"duplicate link path"

(* The CLI binary beside this test's build directory, if it is built. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "xseq_cli.exe")

(* [xseq args], its output discarded: the exit code. *)
let run_cli args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      let pid =
        Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null
          null
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED code -> code
      | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n)

(* Every value a loaded index holds is 32-bit.  A snapshot with a label,
   a link-directory entry, a dictionary entry or a node count of 2^31 is
   damaged: its load fails with an "inconsistent snapshot" diagnostic,
   and [xseq info] and [xseq query] exit 1 on it.  A build refuses such
   values the same way. *)
let test_beyond_32_bits () =
  let wide = 1 lsl 31 in
  tampered "meta" (fun m -> m.(0) <- wide) ~want:"node count beyond 32 bits";
  tampered "link_len" (fun m -> m.(0) <- wide)
    ~want:"link length out of range";
  tampered "link_path" (fun m -> m.(0) <- wide)
    ~want:"link path id out of range";
  tampered "dict_parent" (fun m -> m.(1) <- wide)
    ~want:"dictionary parent order";
  (* An upgraded file's index regions are not read, but still hashed:
     a byte of [l_pre] flipped under its checksum fails the load, in
     either container ([Store.check_unread] reports like the open). *)
  List.iter
    (fun (source, want) ->
      with_temp "xseq_upgraded_flip" (fun path ->
          write_all path (read_all source);
          let s = Store.open_file path in
          let r =
            List.find (fun r -> r.Store.r_name = "l_pre") (Store.regions s)
          in
          Store.close s;
          flip_in_place path (r.Store.r_offset + (r.Store.r_stored / 2));
          load_fails ~prefix:"" path ~want))
    [
      (spelled_fixture, "Store.open_file: region \"l_pre\" checksum mismatch");
      ( Filename.concat (Filename.dirname spelled_fixture)
          "v2_dblp_compressed.xseq",
        "Store.open_file: region \"l_pre\" checksum mismatch" );
    ];
  List.iter
    (fun region ->
      with_temp "xseq_wide" (fun path ->
          write_tampered region (fun m -> m.(0) <- wide) path;
          load_fails ~prefix:"Store: inconsistent snapshot: " path
            ~want:
              (Printf.sprintf
                 "region %S element 0 (2147483648) does not fit in 32 bits"
                 region);
          if Sys.file_exists cli then begin
            Alcotest.(check int) "query exits 1" 1
              (run_cli [ "query"; path; "//author" ]);
            (* [info] reads the doc table, not the link columns. *)
            if region = "doc_pre" then
              Alcotest.(check int) "info exits 1" 1 (run_cli [ "info"; path ])
          end))
    [ "l_pre"; "l_post"; "l_up"; "doc_pre"; "doc_id" ];
  (* The compact dictionary's regions, in every container, are read
     through the same 32-bit reader. *)
  List.iter
    (fun format ->
      tampered ~format "dict_desig" (fun m -> m.(1) <- wide)
        ~want:"designator id out of range";
      tampered ~format "desig_kind" (fun m -> m.(0) <- wide)
        ~want:"designator kind out of range")
    Containers.[ Col1; Plain; Compressed ];
  (match Store.flat_of_array [| 0; -wide; wide |] with
   | _ -> Alcotest.fail "a flat column took 2^31"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "a flat column takes -2^31" (-wide)
    (Store.get (Store.flat_of_array [| 0; -wide |]) 1)

(* --- record regions at chunk edges --------------------------------------- *)

(* A record region as [Xseq.save] writes it (snapshot version 3): a
   name table (a uvarint count, then each element name's uvarint length
   and bytes, first seen first), then the records in pre-order, an
   element as uvarint (2 * name id) and a uvarint child count, a value
   as uvarint (2 * length + 1) and its bytes; and the offset each record
   starts at. *)
let coded_region docs =
  let ids = Hashtbl.create 16 in
  let table = Buffer.create 256 and nodes = Buffer.create 4096 in
  let id name =
    match Hashtbl.find_opt ids name with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids name i;
      Varint.add_uvarint table (String.length name);
      Buffer.add_string table name;
      i
  in
  let rec node = function
    | T.Element (name, cs) ->
      Varint.add_uvarint nodes (2 * id name);
      Varint.add_uvarint nodes (List.length cs);
      List.iter node cs
    | T.Value s ->
      Varint.add_uvarint nodes ((2 * String.length s) + 1);
      Buffer.add_string nodes s
  in
  let starts =
    Array.map
      (fun d ->
        let at = Buffer.length nodes in
        node d;
        at)
      docs
  in
  let b = Buffer.create (Buffer.length table + Buffer.length nodes + 9) in
  Varint.add_uvarint b (Hashtbl.length ids);
  Buffer.add_buffer b table;
  let base = Buffer.length b in
  Buffer.add_buffer b nodes;
  (Buffer.to_bytes b, Array.map (( + ) base) starts)

(* Writes to [path] a snapshot of [docs] labelled [version] in its
   [xseq_meta], with [region] for its record region.  On the way the
   region [Xseq.save] wrote is checked against [coded_region]. *)
let save_region ~version docs region path =
  copy_snapshot (Xseq.build docs) path
    ~ints:(fun name m -> if name = "xseq_meta" then m.(0) <- version)
    ~blob:(fun name s ->
      if name <> "docs" then s
      else begin
        Alcotest.(check string) "record layout"
          (Bytes.to_string (fst (coded_region docs)))
          s;
        Bytes.to_string region
      end)

(* [load path] fails with the record check's diagnostic. *)
let corrupt_region name path =
  match Xseq.load path with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument msg ->
    Alcotest.(check string) name "Xseq.load: corrupt document region" msg

(* The region of the snapshot at [path]. *)
let region_entry path name =
  let store = Store.open_file path in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      List.find (fun r -> r.Store.r_name = name) (Store.regions store))

(* A record region is checked and decoded 16 KiB at a time. *)
let chunk = 16384

(* The version-2 tests build their snapshots through [save_region]: the
   spelled layout is read only from old files.  The second record's
   name length (258, bytes 02 01 00 00) is at byte 1, its name at 5 and
   its child count (259, bytes 03 01 00 00) at 263: a misassembled u32
   reads another value. *)
let second =
  T.Element
    ( String.make 258 'n',
      List.init 259 (fun i -> T.Value (string_of_int i)) )

(* Two records, the first padded so that byte [at] of the second lands
   [before] bytes (default 2) before the first chunk boundary; and where
   the second starts. *)
let straddling ?(before = 2) at =
  let start = chunk - before - at in
  (* The first record's header and its value's take 15 bytes. *)
  ( [| T.Element ("r", [ T.Value (String.make (start - 15) 'x') ]); second |],
    start )

(* Fields that straddle the boundary decode; record regions that lie, at
   the boundary or elsewhere, fail the load with the record check's
   diagnostic, whatever chunk the lie is in.  A loaded version-2 region
   re-saves in the version-3 layout. *)
let test_records_at_chunk_edges () =
  let corrupt name at edit =
    let docs, start = straddling at in
    with_temp "xseq_records" (fun path ->
        save_region ~version:2 docs
          (edit (spelled_region docs) start)
          path;
        corrupt_region name path)
  in
  List.iter
    (fun (what, at, before) ->
      let docs, _ = straddling ~before at in
      with_temp "xseq_records" (fun path ->
          save_region ~version:2 docs (spelled_region docs) path;
          let loaded = Xseq.load path in
          Alcotest.(check bool)
            (Printf.sprintf "%s straddles by %d, decoded" what before)
            true
            (Xseq.document loaded 1 = second);
          with_temp "xseq_records_v3" (fun resaved ->
              Xseq.save loaded resaved;
              let s = Store.open_file resaved in
              Alcotest.(check string) "re-saved in the version-3 layout"
                (Bytes.to_string (fst (coded_region docs)))
                (Store.blob s "docs");
              Store.close s);
          Option.iter Store.close (Xseq.backing_store loaded)))
    (("name", 5, 2)
    :: List.concat_map
         (fun before ->
           [ ("name length", 1, before); ("child count", 263, before) ])
         [ 1; 2; 3 ]);
  let set32 at v b start =
    Bytes.set_int32_le b (start + at) (Int32.of_int v);
    b
  in
  corrupt "straddling name length past the region" 1 (set32 1 0x7fff_0000);
  corrupt "region cut inside a straddling name" 5 (fun b _ ->
      Bytes.sub b 0 chunk);
  corrupt "straddling child count that overruns" 263 (set32 263 1000);
  corrupt "truncated last record" 1 (fun b _ ->
      Bytes.sub b 0 (Bytes.length b - 1));
  corrupt "trailing bytes" 1 (fun b _ -> Bytes.cat b (Bytes.make 1 '\000'));
  corrupt "child count that overruns the region" 1 (fun b _ ->
      Bytes.set_int32_le b 6 3l;
      b)

(* A version-2 record region whose checksum fails is reported as such,
   even where its bytes would fail the record check first: a name
   length flipped in the second chunk.  The load that upgrades the file
   decodes its records, so the flip comes before the load. *)
let test_records_checksum_first () =
  let docs, start = straddling 1 in
  with_temp "xseq_records_flip" (fun path ->
      save_region ~version:2 docs (spelled_region docs) path;
      let region = region_entry path "docs" in
      (* The name length's high byte, past the boundary. *)
      flip_in_place path (region.Store.r_offset + start + 4);
      match Xseq.load path with
      | loaded ->
        Option.iter Store.close (Xseq.backing_store loaded);
        Alcotest.fail "a flipped record region was decoded"
      | exception Invalid_argument msg ->
        Alcotest.(check string) "checksum before the record check"
          "Store: region \"docs\" checksum mismatch" msg)

(* The version-3 twins.  Sixty-five names come before the second
   record's, so its name id (65, tag 130), its child count (200) and its
   first value's tag (a 100-byte text, 201) take two bytes each, at
   offsets 0, 2 and 4 of the record. *)
let coded_second =
  T.Element
    ("second", List.init 200 (fun i -> T.Value (Printf.sprintf "%100d" i)))

let coded_first pad =
  T.Element
    ( "r",
      List.init 64 (fun i -> T.Element (Printf.sprintf "a%d" i, []))
      @ [ T.Value (String.make pad 'x') ] )

(* As [straddling], for the version-3 layout: the pad moves the second
   record byte for byte, and once more where the pad's own tag grows a
   byte. *)
let coded_straddling ?(before = 2) at =
  let target = chunk - before - at in
  let docs pad = [| coded_first pad; coded_second |] in
  let rec fit pad =
    let start = (snd (coded_region (docs pad))).(1) in
    if start = target then docs pad else fit (pad + target - start)
  in
  (fit 100, target)

(* [Bytes.sub b at len] replaced by [s]. *)
let splice b at len s =
  Bytes.concat Bytes.empty
    [
      Bytes.sub b 0 at;
      Bytes.of_string s;
      Bytes.sub b (at + len) (Bytes.length b - at - len);
    ]

let test_coded_records_at_chunk_edges () =
  let corrupt ?(before = 2) name at edit =
    let docs, start = coded_straddling ~before at in
    with_temp "xseq_coded" (fun path ->
        save_region ~version:3 docs (edit (fst (coded_region docs)) start) path;
        corrupt_region name path)
  in
  List.iter
    (fun (what, at, before) ->
      let docs, start = coded_straddling ~before at in
      with_temp "xseq_coded" (fun path ->
          Xseq.save (Xseq.build docs) path;
          let s = Store.open_file path in
          let region = Store.blob s "docs" in
          Store.close s;
          Alcotest.(check string) "record layout"
            (Bytes.to_string (fst (coded_region docs)))
            region;
          Alcotest.(check int) "second record's start" start
            (snd (coded_region docs)).(1);
          let loaded = Xseq.load path in
          Alcotest.(check bool)
            (Printf.sprintf "%s straddles by %d, decoded" what before)
            true
            (Xseq.document loaded 1 = coded_second);
          Option.iter Store.close (Xseq.backing_store loaded)))
    (List.concat_map
       (fun before ->
         [
           ("name id", 0, before);
           ("child count", 2, before);
           ("text length", 4, before);
         ])
       [ 1; 2; 3 ]);
  let set at s b start = splice b (start + at) (String.length s) s in
  corrupt ~before:1 "straddling name id past the table" 0 (set 0 "\x84\x01");
  corrupt "name id past the table" 0 (set 0 "\x84\x01");
  corrupt ~before:1 "region cut inside a straddling child count" 2
    (fun b _ -> Bytes.sub b 0 chunk);
  corrupt ~before:1 "straddling child count that overruns" 2
    (set 2 "\xc9\x01");
  corrupt ~before:1 "straddling text length past the region" 4 (fun b start ->
      splice b (start + 4) 2 "\xff\xff\x7f");
  corrupt "truncated name table" 0 (fun b _ -> Bytes.sub b 0 100);
  corrupt "name length past the region" 0 (fun b _ ->
      (* The first name's length, "r"'s, is byte 1. *)
      splice b 1 1 "\xff\xff\x03");
  corrupt "varint longer than nine bytes" 0 (fun b start ->
      splice b start 2 "\x82\x81\x80\x80\x80\x80\x80\x80\x80\x00");
  corrupt "varint with a needless zero byte" 2 (fun b start ->
      (* 200 as c8 81 00, not c8 01: the reader takes only the shortest
         form, the writer's. *)
      splice b (start + 2) 2 "\xc8\x81\x00");
  corrupt "text length past the region" 0 (fun b _ ->
      (* The last value's 100 bytes, claimed as 101. *)
      let at = Bytes.length b - 102 in
      splice b at 2 "\xcb\x01");
  corrupt "child count that overruns the region" 2 (set 2 "\xc9\x01");
  corrupt "truncated last record" 0 (fun b _ ->
      Bytes.sub b 0 (Bytes.length b - 1));
  corrupt "trailing bytes" 0 (fun b _ -> Bytes.cat b (Bytes.make 1 '\000'))

(* A flipped straddling name id would fail the record check (0x01 ->
   0x11 names id 1089 of 66): the checksum is reported first. *)
let test_coded_records_checksum_first () =
  let docs, start = coded_straddling ~before:1 0 in
  with_temp "xseq_coded_flip" (fun path ->
      Xseq.save (Xseq.build docs) path;
      let region = region_entry path "docs" in
      let loaded = Xseq.load path in
      flip_in_place path (region.Store.r_offset + start + 1);
      (match Xseq.document loaded 1 with
       | _ -> Alcotest.fail "a flipped record region was decoded"
       | exception Invalid_argument msg ->
         Alcotest.(check string) "checksum before the record check"
           "Store: region \"docs\" checksum mismatch" msg);
      Option.iter Store.close (Xseq.backing_store loaded))

(* The compact dictionary's cross-region invariants: a designator id
   pointing outside the name table must be rejected even though every
   checksum is valid. *)
let test_inconsistent_compact_dict () =
  let docs = Xdatagen.Dblp_gen.generate 10 in
  let index = Xseq.build docs in
  with_temp "xseq_bad_dict" (fun path ->
      let tmp = Filename.temp_file "xseq_src2" ".idx" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          Xseq.save ~compress:true index tmp;
          let src = Store.open_file tmp in
          let s = Store.memory () in
          List.iter
            (fun r ->
              match (r.Store.r_name, r.Store.r_kind) with
              | "dict_desig", _ ->
                let m = Store.to_array (Store.ints src "dict_desig") in
                Alcotest.(check bool)
                  "compact dictionary present" true (Array.length m > 1);
                m.(1) <- 1_000_000;
                Store.add_int_array s "dict_desig" m
              | name, `Ints -> Store.add_ints s name (Store.ints src name)
              | name, `Blob -> Store.add_blob s name (Store.blob src name))
            (Store.regions src);
          Store.write ~compress:true s path;
          Store.close src);
      match Xseq.load path with
      | _ -> Alcotest.fail "tampered compact dictionary accepted"
      | exception Invalid_argument _ -> ())

(* Compressed saves under fault injection: hard faults (ENOSPC, EIO)
   escape and the partial file is rejected with a diagnostic on load;
   absorbed faults (short writes, EINTR storms) leave a perfect file. *)
let test_compressed_save_faults () =
  let docs = Xdatagen.Dblp_gen.generate 20 in
  let index = Xseq.build docs in
  let q = List.hd (queries_of ~seed:3 docs) in
  let want = Xseq.query index q in
  with_temp "xseq_c2_fault" (fun path ->
      (match
         Xfault.with_injector
           (Xfault.Injector.create
              [ { Xfault.at = 3; on = Xfault.Write; fault = Xfault.Enospc } ])
           (fun () -> Xseq.save ~compress:true index path)
       with
      | () -> Alcotest.fail "ENOSPC mid-save did not escape"
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
      (match Xseq.load path with
      | _ -> Alcotest.fail "partial compressed snapshot accepted"
      | exception Invalid_argument _ -> ());
      Xfault.with_injector
        (Xfault.Injector.create
           [
             { Xfault.at = 0; on = Xfault.Write; fault = Xfault.Short 3 };
             { Xfault.at = 2; on = Xfault.Write; fault = Xfault.Eintr 2 };
             { Xfault.at = 5; on = Xfault.Write; fault = Xfault.Short 1 };
           ])
        (fun () -> Xseq.save ~compress:true index path);
      let loaded = Xseq.load path in
      Alcotest.(check (list int))
        "absorbed faults round trip" want (Xseq.query loaded q);
      match
        Xfault.with_injector
          (Xfault.Injector.create
             [ { Xfault.at = 0; on = Xfault.Open; fault = Xfault.Eio } ])
          (fun () -> Xseq.load path)
      with
      | _ -> Alcotest.fail "open EIO swallowed"
      | exception Unix.Unix_error (Unix.EIO, _, _) -> ())

(* --- element widths ------------------------------------------------------ *)

let lo32 = Xutil.I32.min_value
let hi32 = Xutil.I32.max_value

let region_info s name =
  List.find (fun r -> r.Store.r_name = name) (Store.regions s)

(* An xseqcol1 int region holds four bytes an element when every value
   fits in 32 bits, the extremes included, and reads back the same
   through the streamed, flat and 32-bit readers.  One wider value keeps
   its whole region at eight bytes. *)
let test_element_widths () =
  let narrow = [| 0; lo32; hi32; -1; 7; hi32; lo32 |] in
  let wide = [| 0; lo32; hi32; hi32 + 1 |] in
  with_temp "store_widths" (fun path ->
      let m = Store.memory () in
      Store.add_int_array m "narrow" (Array.copy narrow);
      Store.add_int_array m "wide" (Array.copy wide);
      Containers.write_col1 ~page_size:16 m path;
      let ints = Alcotest.(list int) in
      let resident = Store.open_file path in
      List.iter
        (fun (name, a, width) ->
          let r = region_info resident name in
          Alcotest.(check int)
            (name ^ " bytes") (width * Array.length a) r.Store.r_bytes;
          Alcotest.(check int)
            (name ^ " stored") (width * Array.length a) r.Store.r_stored;
          let want = Array.to_list a in
          Alcotest.check ints (name ^ " int_array") want
            (Array.to_list (Store.int_array resident name));
          Alcotest.check ints (name ^ " i32")
            (List.map (fun x -> max lo32 (min hi32 x)) want)
            (Array.to_list (Xutil.I32.to_array (Store.i32 resident name))))
        [ ("narrow", narrow, 4); ("wide", wide, 8) ];
      Alcotest.check ints "narrow resident" (Array.to_list narrow)
        (Array.to_list (Store.to_array (Store.ints resident "narrow")));
      (match Store.ints resident "wide" with
       | _ -> Alcotest.fail "a resident column held 2^31"
       | exception Invalid_argument msg ->
         Alcotest.(check string) "wide resident diagnostic"
           "Store: inconsistent snapshot: region \"wide\" element 3 \
            (2147483648) does not fit in 32 bits"
           msg);
      Store.close resident);
  (* A snapshot written with 8-byte elements comes out packed when it is
     saved again, its spelled-out dictionary compact. *)
  let legacy = spelled_fixture in
  Alcotest.(check int) "the legacy l_pre is 8-byte" 8
    (let s = Store.open_file legacy in
     let r = region_info s "l_pre" in
     Store.close s;
     r.Store.r_bytes / r.Store.r_count);
  with_temp "store_resave_resident" (fun p1 ->
      Xseq.save (Xseq.load legacy) p1;
      let s = Store.open_file p1 in
      List.iter
        (fun name ->
          let r = region_info s name in
          if r.Store.r_stored >= 4 * r.Store.r_count then
            Alcotest.failf "re-saved %s: %d elements in %d bytes" name
              r.Store.r_count r.Store.r_stored)
        [ "l_pre"; "dict_parent"; "dict_desig"; "desig_kind" ];
      Alcotest.(check (list string))
        "no spelled-out dictionary" []
        (List.filter (Store.mem s) [ "dict_kind"; "dict_name_off"; "dict_names" ]);
      Store.close s)

(* [Store.scan] over a paged compressed column reads what [Store.get]
   reads, page for page, and leaves the decoded-block cache as [get]
   would: later probes read the same pages through either handle. *)
let test_scan_matches_get () =
  let n = 5000 in
  let value i = (i * 7919) mod 10007 in
  with_temp "store_scan" (fun path ->
      let m = Store.memory () in
      Store.add_int_array m "col" (Array.init n value);
      Store.write ~page_size:64 ~compress:true m path;
      let walk read =
        List.filter_map
          (fun i -> if i mod 3 = 1 then None else Some (read i))
          (List.init n Fun.id)
      in
      let open_col () =
        let s = Store.open_file ~mode:Store.Paged ~pool_pages:8 path in
        (s, Store.ints s "col")
      in
      let s1, c1 = open_col () and s2, c2 = open_col () in
      let counters s = (Store.page_reads s, Store.page_hits s) in
      let pair = Alcotest.(pair int int) in
      let via_get = walk (Store.get c1) in
      Alcotest.(check (list int)) "values" (walk value) via_get;
      Alcotest.(check (list int))
        "scan = get" via_get
        (Store.scan c2 (fun get -> walk get));
      Alcotest.check pair "the walk's pages" (counters s1) (counters s2);
      let probes = List.init 300 (fun k -> (k * 2741) mod n) in
      List.iter (fun i -> ignore (Store.get c1 i)) probes;
      List.iter (fun i -> ignore (Store.get c2 i)) probes;
      Alcotest.check pair "later probes' pages" (counters s1) (counters s2);
      Store.close s1;
      Store.close s2)

(* Rewrites the file at [path] through [f] and seals its header with a
   fresh checksum, so only the checks behind the checksum see the
   change. *)
let patch_file path f =
  let b = f (Bytes.of_string (read_all path)) in
  let payload = Int32.to_int (Bytes.get_int32_le b 20) in
  Bytes.set_int64_le b 32
    (Int64.logxor
       (Store.checksum_bytes b 0 32)
       (Store.checksum_bytes b 40 (payload - 40)));
  write_all path (Bytes.to_string b)

let open_fails path ~want =
  match Store.open_file path with
  | s ->
    Store.close s;
    Alcotest.failf "opened despite %s" want
  | exception Invalid_argument msg ->
    Alcotest.(check string) "diagnostic" ("Store.open_file: " ^ want) msg

(* An xseqcol1 8-byte element was written from an int, so it is
   sign-extended from 63 bits.  One that is not, behind valid checksums,
   fails every read of its region instead of reading as another
   value. *)
let test_col1_beyond_int () =
  with_temp "store_col1_wide" (fun path ->
      let m = Store.memory () in
      Store.add_int_array m "col" [| 1 lsl 40; 7 |];
      Containers.write_col1 ~page_size:16 m path;
      let s = Store.open_file path in
      let r = region_info s "col" in
      Store.close s;
      patch_file path (fun b ->
          let at = r.Store.r_offset in
          Bytes.set_uint8 b (at + 7) 0x80;
          Bytes.set_int64_le b (40 + 56)
            (Store.checksum_bytes b at (r.Store.r_pages * 16));
          b);
      let s = Store.open_file path in
      let want =
        "Store: inconsistent snapshot: region \"col\" element 0 \
         (-9223370937343148032) does not fit in an int"
      in
      List.iter
        (fun (what, read) ->
          match read () with
          | () -> Alcotest.failf "%s read a value beyond an int" what
          | exception Invalid_argument msg ->
            Alcotest.(check string) what want msg)
        [
          ("int_array", fun () -> ignore (Store.int_array s "col"));
          ("ints", fun () -> ignore (Store.ints s "col"));
          ("i32", fun () -> ignore (Store.i32 s "col"));
        ];
      Store.close s)

(* Kind 4 (32-bit elements) belongs to xseqcol1: an xseqcol2 TOC entry
   claiming it is malformed.  A 32-bit region cut short, behind a header
   that agrees with the shorter file, is reported as truncated. *)
let test_element_width_toc () =
  let one_region () =
    let m = Store.memory () in
    Store.add_int_array m "col" (Array.init 40 (fun i -> i * 3));
    m
  in
  with_temp "store_kind4_col2" (fun path ->
      Store.write ~page_size:16 ~compress:true (one_region ()) path;
      patch_file path (fun b ->
          Bytes.set_uint8 b (40 + 32) 4;
          b);
      open_fails path ~want:"malformed TOC entry \"col\" (unknown kind 4)");
  with_temp "store_kind4_cut" (fun path ->
      Containers.write_col1 ~page_size:16 (one_region ()) path;
      Alcotest.(check int) "the region is 32-bit" 4
        (Char.code (read_all path).[40 + 32]);
      patch_file path (fun b ->
          let len = Bytes.length b - 16 in
          Bytes.set_int64_le b 24 (Int64.of_int len);
          Bytes.sub b 0 len);
      open_fails path
        ~want:"truncated file (region \"col\" extends past the end)")

let mk_prop name ~count f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count (QCheck.make ~print:case_print case_gen) f)

let () =
  Alcotest.run "store"
    [
      ( "format",
        [
          Alcotest.test_case "resident round trip" `Quick
            test_roundtrip_resident;
          Alcotest.test_case "paged round trip" `Quick test_roundtrip_paged;
          Alcotest.test_case "drop_pool reads cold" `Quick
            test_drop_pool_cold_reads;
          Alcotest.test_case "compressed round trip" `Quick
            test_roundtrip_compressed;
          Alcotest.test_case "resident columns are flat" `Quick
            test_resident_columns_flat;
          Alcotest.test_case "api errors" `Quick test_api_errors;
          Alcotest.test_case "32-bit and 64-bit elements" `Quick
            test_element_widths;
          Alcotest.test_case "scan reads what get reads" `Quick
            test_scan_matches_get;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "varint extremes" `Quick test_varint_extremes;
          Alcotest.test_case "packed unit" `Quick test_packed_unit;
          Alcotest.test_case "frontcode unit" `Quick test_frontcode_unit;
          Alcotest.test_case "lz unit" `Quick test_lz_unit;
          Alcotest.test_case "lz output pinned" `Quick test_lz_golden;
          Alcotest.test_case "packed output pinned" `Quick test_packed_golden;
          prop_packed_roundtrip;
          prop_packed_pieces;
          prop_packed_pieces_reject;
          prop_frontcode_roundtrip;
          prop_lz_roundtrip;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "bit flip in every byte (xseqcol1)" `Quick
            (test_bitflip_every_byte Containers.Col1);
          Alcotest.test_case "bit flip in every byte (xseqcol2)" `Quick
            (test_bitflip_every_byte Containers.Compressed);
          Alcotest.test_case "truncations (xseqcol1)" `Quick
            (test_truncations Containers.Col1);
          Alcotest.test_case "truncations (xseqcol2)" `Quick
            (test_truncations Containers.Compressed);
          Alcotest.test_case "diagnostics name the failure (xseqcol1)" `Quick
            (test_diagnostics Containers.Col1);
          Alcotest.test_case "diagnostics name the failure (xseqcol2)" `Quick
            (test_diagnostics Containers.Compressed);
          Alcotest.test_case "a region flipped after the open fails its read"
            `Quick test_flip_after_open;
          Alcotest.test_case "inconsistent regions" `Quick
            test_inconsistent_snapshot;
          Alcotest.test_case "inconsistent compact dictionary" `Quick
            test_inconsistent_compact_dict;
          Alcotest.test_case "values beyond 32 bits" `Quick
            test_beyond_32_bits;
          Alcotest.test_case "compressed save under fault injection" `Quick
            test_compressed_save_faults;
          Alcotest.test_case "record regions at chunk edges" `Quick
            test_records_at_chunk_edges;
          Alcotest.test_case "record checksum before the record check" `Quick
            test_records_checksum_first;
          Alcotest.test_case "version-3 record regions at chunk edges" `Quick
            test_coded_records_at_chunk_edges;
          Alcotest.test_case "version-3 record checksum before the record check"
            `Quick test_coded_records_checksum_first;
          Alcotest.test_case "32-bit regions in the table of contents" `Quick
            test_element_width_toc;
          Alcotest.test_case "bit flip in every byte (plain xseqcol2)" `Quick
            (test_bitflip_every_byte Containers.Plain);
          Alcotest.test_case "truncations (plain xseqcol2)" `Quick
            (test_truncations Containers.Plain);
          Alcotest.test_case "diagnostics name the failure (plain xseqcol2)"
            `Quick (test_diagnostics Containers.Plain);
          Alcotest.test_case "a load checks every byte once" `Quick
            test_load_checks_every_byte;
          Alcotest.test_case "xseqcol1 elements beyond an int" `Quick
            test_col1_beyond_int;
        ] );
      ( "oracle",
        [
          mk_prop
            "backings = columnar (ids, counters)"
            ~count:60 prop_backend_oracle;
          Alcotest.test_case "value-mode round trips" `Quick
            test_roundtrip_value_modes;
        ] );
    ]
