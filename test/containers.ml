(* The containers a test writes a store or an index in: xseqcol2 as
   [Store.write] writes it, plain or compressed, and xseqcol1, which
   snapshots were written in before every snapshot became xseqcol2 and
   which the store still reads.  No library code writes xseqcol1 any
   more; [write_col1] lays one out as that writer did (32-bit elements
   where every value fits, 8-byte ones otherwise, raw blobs, 4 KiB
   pages), so the readers of older files stay under test. *)

module Store = Xstorage.Store

type t = Plain | Compressed | Col1

let name = function
  | Plain -> "plain xseqcol2"
  | Compressed -> "compressed xseqcol2"
  | Col1 -> "xseqcol1"

let round_up ps n = (n + ps - 1) / ps * ps

(* Every region of [store] (a memory or a file store), in registration
   order, as an xseqcol1 file. *)
let write_col1 ?(page_size = 4096) store path =
  let regions =
    List.map
      (fun r ->
        let name = r.Store.r_name in
        match r.Store.r_kind with
        | `Blob -> (name, 1, String.length (Store.blob store name), Store.blob store name)
        | `Ints ->
          let a = Store.int_array store name in
          let w = if Array.for_all Xutil.I32.fits a then 4 else 8 in
          let b = Bytes.create (w * Array.length a) in
          Array.iteri
            (fun i x ->
              if w = 4 then Bytes.set_int32_le b (4 * i) (Int32.of_int x)
              else Bytes.set_int64_le b (8 * i) (Int64.of_int x))
            a;
          (name, (if w = 4 then 4 else 0), Array.length a, Bytes.to_string b))
      (Store.regions store)
  in
  let payload_off = round_up page_size (40 + (64 * List.length regions)) in
  let off = ref payload_off in
  let placed =
    List.map
      (fun (name, kind, count, data) ->
        let padded = max page_size (round_up page_size (String.length data)) in
        let b = Bytes.make padded '\000' in
        Bytes.blit_string data 0 b 0 (String.length data);
        let o = !off in
        off := o + padded;
        (name, kind, count, o, b))
      regions
  in
  let header = Bytes.make payload_off '\000' in
  Bytes.blit_string "xseqcol1" 0 header 0 8;
  Bytes.set_int32_le header 8 1l;
  Bytes.set_int32_le header 12 (Int32.of_int page_size);
  Bytes.set_int32_le header 16 (Int32.of_int (List.length placed));
  Bytes.set_int32_le header 20 (Int32.of_int payload_off);
  Bytes.set_int64_le header 24 (Int64.of_int !off);
  List.iteri
    (fun i (name, kind, count, o, b) ->
      let e = 40 + (64 * i) in
      Bytes.set_uint8 header e (String.length name);
      Bytes.blit_string name 0 header (e + 1) (String.length name);
      Bytes.set_uint8 header (e + 32) kind;
      Bytes.set_int64_le header (e + 40) (Int64.of_int o);
      Bytes.set_int64_le header (e + 48) (Int64.of_int count);
      Bytes.set_int64_le header (e + 56)
        (Store.checksum_bytes b 0 (Bytes.length b)))
    placed;
  Bytes.set_int64_le header 32
    (Int64.logxor
       (Store.checksum_bytes header 0 32)
       (Store.checksum_bytes header 40 (payload_off - 40)));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc header;
      List.iter (fun (_, _, _, _, b) -> Out_channel.output_bytes oc b) placed)

let write ?page_size t store path =
  match t with
  | Plain -> Store.write ?page_size store path
  | Compressed -> Store.write ?page_size ~compress:true store path
  | Col1 -> write_col1 ?page_size store path

(* [index] saved in container [t]: an xseqcol1 file is the plain
   snapshot's regions laid out again. *)
let save t index path =
  match t with
  | Plain -> Xseq.save index path
  | Compressed -> Xseq.save ~compress:true index path
  | Col1 ->
    let tmp = Filename.temp_file "xseq_col1" ".plain" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        Xseq.save index tmp;
        let s = Store.open_file tmp in
        Fun.protect
          ~finally:(fun () -> Store.close s)
          (fun () -> write_col1 s path))

(* The container of the file at [path], by its magic and, for xseqcol2,
   whether any blob region is LZ-coded. *)
let of_file path =
  let s = Store.open_file path in
  Fun.protect
    ~finally:(fun () -> Store.close s)
    (fun () ->
      match Store.file_format s with
      | Store.Col1 -> Col1
      | Store.Col2 ->
        if
          List.exists
            (fun r -> r.Store.r_kind = `Blob && r.Store.r_stored < r.Store.r_bytes)
            (Store.regions s)
        then Compressed
        else Plain)

(* A record region of snapshot version 3, which earlier saves wrote: a
   name table (a uvarint count, then each element name's uvarint length
   and bytes, first seen first), then the records in pre-order, an
   element as uvarint (2 * name id) and a uvarint child count, a value
   as uvarint (2 * length + 1) and its bytes; and the offset each record
   starts at. *)
let v3_records docs =
  let module T = Xmlcore.Xml_tree in
  let module Varint = Xsuccinct.Varint in
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

(* [index] saved in container [t] as a snapshot of an older [version]
   (default 3), the way saves before version 4 laid one out: [xseq_meta]
   naming that version, then the record region [records], then the
   index regions; no [sibling_order].  [ints] and [blob] may edit each
   index region on the way. *)
let save_older ?(version = 3) ?(ints = fun _ _ -> ())
    ?(blob = fun _ s -> s) ~records t index path =
  let tmp = Filename.temp_file "xseq_older" ".xseq" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Xseq.save index tmp;
      let src = Store.open_file tmp in
      Fun.protect
        ~finally:(fun () -> Store.close src)
        (fun () ->
          let s = Store.memory () in
          List.iter
            (fun r ->
              match (r.Store.r_name, r.Store.r_kind) with
              | "sibling_order", _ -> ()
              | "xseq_meta", _ ->
                let m = Store.int_array src "xseq_meta" in
                m.(0) <- version;
                ints "xseq_meta" m;
                Store.add_int_array s "xseq_meta" m;
                Store.add_blob s "docs" (Bytes.to_string records)
              | name, `Ints ->
                let m = Store.int_array src name in
                ints name m;
                Store.add_int_array s name m
              | name, `Blob ->
                Store.add_blob s name (blob name (Store.blob src name)))
            (Store.regions src);
          write t s path))

(* The CLI binary beside the test's build directory, if it is built. *)
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
