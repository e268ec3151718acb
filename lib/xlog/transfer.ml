(* A transfer stream is immutable for the lifetime of one checkpoint:
   a manifest header, then the checkpoint file, the base snapshot it
   names, and the WAL *prefix* [0, c_wal_offset) of file c_wal_index —
   exactly the bytes the checkpoint covers, nothing past the cut.
   Records past the cut ship through normal tailing after install, so
   every byte of the stream is stable and a resume cursor (or a
   mid-transfer reconnect) picks up where it left off.  The token is
   the checkpoint's own checksum rendered as hex: a new checkpoint ⇒
   a new token ⇒ the client restarts, never splices two snapshots. *)

let stream_magic = "xseqxfr1"
let tmp_dir dir = Filename.concat dir Layout.xfer_tmp
let ready_dir dir = Filename.concat dir Layout.xfer_ready
let max_entries = 100_000

type entry = { e_name : string; e_size : int }

type manifest = {
  x_token : string;
  x_entries : entry list;
  x_header : string;  (** encoded header, byte 0 of the stream *)
  x_total : int;  (** header + every entry *)
  x_wal_index : int;  (** WAL files >= this must survive pruning *)
}

let encode_header entries =
  let b = Buffer.create 256 in
  Buffer.add_string b stream_magic;
  Buffer.add_int32_le b 0l (* header length, patched below *);
  Buffer.add_int32_le b (Int32.of_int (List.length entries));
  List.iter
    (fun e ->
      Buffer.add_int32_le b (Int32.of_int (String.length e.e_name));
      Buffer.add_string b e.e_name;
      Buffer.add_int64_le b (Int64.of_int e.e_size))
    entries;
  let s = Bytes.of_string (Buffer.contents b) in
  Bytes.set_int32_le s 8 (Int32.of_int (Bytes.length s));
  Bytes.unsafe_to_string s

(* [Ok None]: fewer bytes than a complete header — feed more.  Names
   are validated here so a hostile stream can never escape the staging
   directory or smuggle a MANIFEST in. *)
let decode_header s =
  let len = String.length s in
  if len < 16 then Ok None
  else if not (String.equal (String.sub s 0 8) stream_magic) then
    Error "bad transfer magic"
  else begin
    let hlen = Int32.to_int (String.get_int32_le s 8) in
    if hlen < 16 || hlen > 1 lsl 20 then Error "implausible header length"
    else if len < hlen then Ok None
    else begin
      let count = Int32.to_int (String.get_int32_le s 12) in
      if count < 0 || count > max_entries then Error "implausible file count"
      else begin
        let pos = ref 16 in
        let exception Bad of string in
        try
          let entries =
            List.init count (fun _ ->
                if !pos + 4 > hlen then raise (Bad "truncated header");
                let nlen = Int32.to_int (String.get_int32_le s !pos) in
                pos := !pos + 4;
                if nlen <= 0 || nlen > hlen - !pos then
                  raise (Bad "bad name length");
                let name = String.sub s !pos nlen in
                pos := !pos + nlen;
                if
                  String.contains name '/'
                  || String.equal name ".."
                  || String.equal name Layout.manifest
                then raise (Bad ("illegal file name " ^ name));
                if !pos + 8 > hlen then raise (Bad "truncated header");
                let raw = String.get_int64_le s !pos in
                pos := !pos + 8;
                let size = Int64.to_int raw in
                if (not (Int64.equal (Int64.of_int size) raw)) || size < 0
                then raise (Bad "bad file size");
                { e_name = name; e_size = size })
          in
          if !pos <> hlen then Error "trailing header bytes"
          else Ok (Some (entries, hlen))
        with Bad m -> Error m
      end
    end
  end

let manifest_of_dir dir =
  let ckp_path = Filename.concat dir Layout.checkpoint in
  match
    if not (Sys.file_exists ckp_path) then "" else Layout.read_file ckp_path
  with
  | exception Sys_error m -> Error ("checkpoint unreadable: " ^ m)
  | "" ->
    (* No checkpoint yet: an empty stream.  The receiver installs
       nothing and tails from the log start. *)
    let header = encode_header [] in
    Ok
      {
        x_token = "empty";
        x_entries = [];
        x_header = header;
        x_total = String.length header;
        x_wal_index = 0;
      }
  | ckp_bytes -> (
    (* Decode the bytes the token hashes: a compaction committing now
       cannot pair this token with another checkpoint's entries. *)
    match Layout.checkpoint_of_string ckp_bytes with
    | Error m -> Error ("checkpoint: " ^ m)
    | Ok c -> (
      let stat_size name =
        match Unix.stat (Filename.concat dir name) with
        | s -> Ok s.Unix.st_size
        | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "%s: %s" name (Unix.error_message e))
      in
      let base_entries =
        if String.equal c.c_base "" then Ok []
        else
          match stat_size c.c_base with
          | Error m -> Error m
          | Ok n -> Ok [ { e_name = c.c_base; e_size = n } ]
      in
      let wal_name = Layout.wal c.c_wal_index in
      match (base_entries, stat_size wal_name) with
      | Error m, _ | _, Error m -> Error m
      | Ok base_entries, Ok wal_size ->
        if wal_size < c.c_wal_offset then
          Error (Printf.sprintf "%s shorter than the checkpoint cut" wal_name)
        else begin
          let entries =
            { e_name = Layout.checkpoint; e_size = String.length ckp_bytes }
            :: base_entries
            @ [ { e_name = wal_name; e_size = c.c_wal_offset } ]
          in
          let header = encode_header entries in
          let total =
            List.fold_left
              (fun acc e -> acc + e.e_size)
              (String.length header) entries
          in
          Ok
            {
              x_token =
                Printf.sprintf "%016Lx"
                  (Xstorage.Store.checksum_string ckp_bytes 0
                     (String.length ckp_bytes));
              x_entries = entries;
              x_header = header;
              x_total = total;
              x_wal_index = c.c_wal_index;
            }
        end))

(* Read [len] bytes of the stream starting at absolute offset [off].
   Short only at the end of the stream. *)
let read_slice dir m ~off ~len =
  if off < 0 || len < 0 then Error "negative slice"
  else begin
    let b = Buffer.create (min len 65536) in
    let want = min len (m.x_total - off) in
    let exception Fail of string in
    let read_file_part name ~foff ~n =
      let path = Filename.concat dir name in
      match Xfault.Io.openfile path [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error (e, _, _) ->
        raise (Fail (Printf.sprintf "%s: %s" name (Unix.error_message e)))
      | fd ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            ignore (Unix.lseek fd foff Unix.SEEK_SET : int);
            let buf = Bytes.create (min n 65536) in
            let left = ref n in
            while !left > 0 do
              let k =
                Xfault.Io.retry_eintr (fun () ->
                    Xfault.Io.read fd buf 0 (min !left (Bytes.length buf)))
              in
              if k = 0 then
                raise
                  (Fail
                     (Printf.sprintf "%s truncated under the manifest" name));
              Buffer.add_subbytes b buf 0 k;
              left := !left - k
            done)
    in
    try
      let pos = ref 0 (* stream offset of the current piece *) in
      let piece name size reader =
        let lo = max off !pos and hi = min (off + want) (!pos + size) in
        if hi > lo then reader name ~foff:(lo - !pos) ~n:(hi - lo);
        pos := !pos + size
      in
      piece "(header)" (String.length m.x_header) (fun _ ~foff ~n ->
          Buffer.add_substring b m.x_header foff n);
      List.iter (fun e -> piece e.e_name e.e_size read_file_part) m.x_entries;
      Ok (Buffer.contents b)
    with Fail m -> Error m
  end

(* --- receiver --------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun n -> rm_rf (Filename.concat path n))
      (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

type receiver = {
  rv_dir : string;
  rv_tmp : string;
  rv_header : Buffer.t;  (** bytes until the header decodes *)
  mutable rv_entries : entry list option;  (** decoded header *)
  mutable rv_queue : entry list;  (** entries not yet fully written *)
  mutable rv_written : int;  (** bytes of the queue head on disk *)
  mutable rv_fd : Unix.file_descr option;
  mutable rv_got : int;  (** stream bytes consumed *)
}

let recv_create dir =
  rm_rf (tmp_dir dir);
  rm_rf (ready_dir dir);
  Unix.mkdir (tmp_dir dir) 0o755;
  {
    rv_dir = dir;
    rv_tmp = tmp_dir dir;
    rv_header = Buffer.create 256;
    rv_entries = None;
    rv_queue = [];
    rv_written = 0;
    rv_fd = None;
    rv_got = 0;
  }

let recv_got rv = rv.rv_got

let recv_abort rv =
  (match rv.rv_fd with
  | Some fd ->
    rv.rv_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  rm_rf rv.rv_tmp

let close_entry rv fd =
  Xfault.Io.retry_eintr (fun () -> Xfault.Io.fsync fd);
  rv.rv_fd <- None;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* Pop queue entries the written cursor has completed; open the next
   file lazily.  Zero-size entries complete without a write. *)
let rec feed_files rv s off len =
  match rv.rv_queue with
  | [] ->
    if len > 0 then Error "data past the manifest total" else Ok ()
  | e :: rest ->
    if rv.rv_written = e.e_size then begin
      (match rv.rv_fd with Some fd -> close_entry rv fd | None -> ());
      rv.rv_queue <- rest;
      rv.rv_written <- 0;
      feed_files rv s off len
    end
    else if len = 0 then Ok ()
    else begin
      let fd =
        match rv.rv_fd with
        | Some fd -> fd
        | None ->
          let fd =
            Xfault.Io.openfile
              (Filename.concat rv.rv_tmp e.e_name)
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
              0o644
          in
          rv.rv_fd <- Some fd;
          fd
      in
      let n = min len (e.e_size - rv.rv_written) in
      Xfault.Io.write_all fd s off n;
      rv.rv_written <- rv.rv_written + n;
      feed_files rv s (off + n) (len - n)
    end

(* Feed one chunk of stream bytes (must arrive in order). *)
let recv_write rv s =
  let slen = String.length s in
  rv.rv_got <- rv.rv_got + slen;
  match rv.rv_entries with
  | Some _ -> feed_files rv s 0 slen
  | None -> (
    Buffer.add_string rv.rv_header s;
    match decode_header (Buffer.contents rv.rv_header) with
    | Error m -> Error m
    | Ok None -> Ok ()
    | Ok (Some (entries, hlen)) ->
      rv.rv_entries <- Some entries;
      rv.rv_queue <- entries;
      rv.rv_written <- 0;
      let buffered = Buffer.contents rv.rv_header in
      feed_files rv buffered hlen (String.length buffered - hlen))

(* Every staged file re-verifies its own checksums — the per-chunk
   transport CRC only catches wire damage, not a corrupt source. *)
let verify_entry rv e =
  let path = Filename.concat rv.rv_tmp e.e_name in
  match Layout.classify e.e_name with
  | Layout.Checkpoint -> (
    match Layout.read_checkpoint path with
    | Ok (Some _) -> Ok ()
    | Ok None -> Error "staged checkpoint missing"
    | Error m -> Error ("staged checkpoint: " ^ m))
  | Layout.Wal _ -> (
    match Wal.scan_file path with
    | Error m -> Error (e.e_name ^ ": " ^ m)
    | Ok scan -> (
      match scan.Wal.torn with
      | Some diag -> Error (Printf.sprintf "%s: torn (%s)" e.e_name diag)
      | None ->
        if scan.Wal.good_bytes <> e.e_size then
          Error (Printf.sprintf "%s: %d good bytes, expected %d" e.e_name
                   scan.Wal.good_bytes e.e_size)
        else Ok ()))
  | Layout.Base _ -> (
    match Xstorage.Store.open_file path with
    | st ->
      Xstorage.Store.close st;
      Ok ()
    | exception e2 -> Error (e.e_name ^ ": " ^ Printexc.to_string e2))
  | Layout.Other -> Error ("unexpected staged file " ^ e.e_name)

(* The stream is complete: verify every staged file, persist the
   manifest (the re-runnable install reads it — a directory listing
   would forget files already moved), and commit the staging dir to
   [xfer.ready] with a rename.  After this returns [Ok], installation
   survives kill -9 at any point. *)
let recv_finish rv =
  (* Trailing zero-size entries complete without any data byte. *)
  (match feed_files rv "" 0 0 with Ok () -> () | Error _ -> ());
  match rv.rv_entries with
  | None -> Error "stream ended before the header"
  | Some entries ->
    if rv.rv_queue <> [] || rv.rv_fd <> None then
      Error "stream ended mid-file"
    else begin
      let rec verify = function
        | [] -> Ok ()
        | e :: rest -> (
          match verify_entry rv e with
          | Ok () -> verify rest
          | Error _ as err -> err)
      in
      match verify entries with
      | Error _ as err -> err
      | Ok () -> (
        try
          Layout.write_file_sync
            (Filename.concat rv.rv_tmp Layout.manifest)
            (String.concat "\n" (List.map (fun e -> e.e_name) entries));
          Layout.fsync_path rv.rv_tmp;
          Xfault.Io.rename rv.rv_tmp (ready_dir rv.rv_dir);
          Layout.fsync_path rv.rv_dir;
          Ok ()
        with
        | Unix.Unix_error (e, _, _) ->
          Error ("commit: " ^ Unix.error_message e)
        | Sys_error m -> Error ("commit: " ^ m))
    end

let is_data_file name =
  match Layout.classify name with
  | Layout.Wal _ | Layout.Base _ | Layout.Checkpoint -> true
  | Layout.Other -> false

(* Idempotent install of a committed [xfer.ready]: replace the data
   files with the staged set.  Interruptible anywhere — rerunning from
   [open_]/[reseed] completes it, because the manifest (not the
   directory listing) names the staged set and every step tolerates
   "already done".  Returns [true] iff a snapshot was installed. *)
let install_ready dir =
  rm_rf (tmp_dir dir);
  let ready = ready_dir dir in
  if not (Sys.file_exists ready) then false
  else begin
    match Layout.read_file (Filename.concat ready Layout.manifest) with
    | exception Sys_error _ ->
      (* Committed dirs always carry a manifest: this is pre-commit
         debris from a crashed rename — discard it. *)
      rm_rf ready;
      false
    | names_blob ->
      let names =
        List.filter
          (fun n -> not (String.equal n ""))
          (String.split_on_char '\n' names_blob)
      in
      let member n = List.exists (String.equal n) names in
      (* 1. Drop current data files the snapshot does not carry. *)
      Array.iter
        (fun n ->
          if is_data_file n && not (member n) then
            try Unix.unlink (Filename.concat dir n)
            with Unix.Unix_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      (* 2. Move the staged set in (files already moved are absent
         from [ready] — skip them). *)
      List.iter
        (fun n ->
          let src = Filename.concat ready n in
          if Sys.file_exists src then
            Xfault.Io.rename src (Filename.concat dir n))
        names;
      Layout.fsync_path dir;
      rm_rf ready;
      true
  end
