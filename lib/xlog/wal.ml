(* Write-ahead log codec and appender: see wal.mli for the format. *)

module T = Xmlcore.Xml_tree

type op =
  | Insert of int * T.t
  | Remove of int

let magic = "xlogwal1"
let header_size = 12 (* u32 length + u64 checksum *)
let max_record = 16 * 1024 * 1024
let max_depth = 10_000
let checksum = Xstorage.Store.checksum_string

(* --- encoding ----------------------------------------------------------- *)

let add_doc b doc =
  let add_str s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  let rec node = function
    | T.Element (name, cs) ->
      Buffer.add_uint8 b 0;
      add_str name;
      Buffer.add_int32_le b (Int32.of_int (List.length cs));
      List.iter node cs
    | T.Value s ->
      Buffer.add_uint8 b 1;
      add_str s
  in
  node doc

let encode_op op =
  let b = Buffer.create 256 in
  (match op with
  | Insert (id, doc) ->
    Buffer.add_uint8 b 1;
    Buffer.add_int64_le b (Int64.of_int id);
    add_doc b doc
  | Remove id ->
    Buffer.add_uint8 b 2;
    Buffer.add_int64_le b (Int64.of_int id));
  Buffer.contents b

let encode_record op =
  let payload = encode_op op in
  let n = String.length payload in
  if n > max_record then
    invalid_arg (Printf.sprintf "Xlog.Wal.encode_record: payload %d exceeds cap" n);
  let b = Buffer.create (header_size + n) in
  Buffer.add_int32_le b (Int32.of_int n);
  Buffer.add_int64_le b (checksum payload 0 n);
  Buffer.add_string b payload;
  Buffer.contents b

(* --- defensive decoding ------------------------------------------------- *)

exception Malformed of string
(* Private to this module: every entry point catches it. *)

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

type cursor = { s : string; mutable pos : int; limit : int }

let u8 c =
  if c.pos >= c.limit then bad "truncated at byte %d" c.pos;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u32 c =
  if c.pos + 4 > c.limit then bad "truncated u32 at byte %d" c.pos;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then bad "negative u32 at byte %d" (c.pos - 4);
  v

let i64_id c =
  if c.pos + 8 > c.limit then bad "truncated id at byte %d" c.pos;
  let raw = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  let v = Int64.to_int raw in
  if (not (Int64.equal (Int64.of_int v) raw)) || v < 0 then
    bad "id out of range at byte %d" (c.pos - 8);
  v

let str c =
  let n = u32 c in
  if n > c.limit - c.pos then bad "string length %d overruns payload" n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let rec doc c depth =
  if depth > max_depth then bad "nesting deeper than %d" max_depth;
  match u8 c with
  | 0 ->
    let name = str c in
    let n = u32 c in
    (* Each child consumes at least one byte, so a lying count runs out
       of payload and fails the bounds checks above. *)
    if n > c.limit - c.pos then bad "child count %d overruns payload" n;
    T.Element (name, children c depth n [])
  | 1 -> T.Value (str c)
  | k -> bad "unknown node kind %d" k

and children c depth n acc =
  if n = 0 then List.rev acc else children c depth (n - 1) (doc c (depth + 1) :: acc)

let decode_op payload =
  let c = { s = payload; pos = 0; limit = String.length payload } in
  match
    let op =
      match u8 c with
      | 1 ->
        let id = i64_id c in
        let d = doc c 1 in
        Insert (id, d)
      | 2 -> Remove (i64_id c)
      | k -> bad "unknown op %d" k
    in
    if c.pos <> c.limit then bad "%d trailing bytes after op" (c.limit - c.pos);
    op
  with
  | op -> Ok op
  | exception Malformed msg -> Error msg

(* --- scanning ----------------------------------------------------------- *)

type scan = { ops : op list; good_bytes : int; torn : string option }

let scan_string ?offset s =
  let len = String.length s in
  let start = match offset with Some o -> o | None -> String.length magic in
  if start < String.length magic || start > len then
    Error (Printf.sprintf "scan offset %d out of bounds" start)
  else if len < String.length magic || not (String.equal (String.sub s 0 8) magic)
  then Error "bad WAL magic"
  else begin
    let ops = ref [] in
    let pos = ref start in
    let torn = ref None in
    let stop msg = torn := Some (Printf.sprintf "%s at offset %d" msg !pos) in
    (try
       while !pos < len && !torn = None do
         if !pos + header_size > len then begin
           stop "truncated record header";
           raise Exit
         end;
         let n = Int32.to_int (String.get_int32_le s !pos) in
         if n < 1 || n > max_record then begin
           stop (Printf.sprintf "implausible record length %d" n);
           raise Exit
         end;
         if n > len - !pos - header_size then begin
           stop (Printf.sprintf "truncated record payload (%d declared)" n);
           raise Exit
         end;
         let stored = String.get_int64_le s (!pos + 4) in
         if not (Int64.equal stored (checksum s (!pos + header_size) n)) then begin
           stop "record checksum mismatch";
           raise Exit
         end;
         match decode_op (String.sub s (!pos + header_size) n) with
         | Ok op ->
           ops := op :: !ops;
           pos := !pos + header_size + n
         | Error msg ->
           stop (Printf.sprintf "undecodable record (%s)" msg);
           raise Exit
       done
     with Exit -> ());
    Ok { ops = List.rev !ops; good_bytes = !pos; torn = !torn }
  end

(* All physical I/O below goes through the {!Xfault.Io} shim so the
   fault-injection harness can hit it.  [EINTR] is absorbed here — an
   interrupt storm must never surface to the store. *)

let read_file path =
  let fd = Xfault.Io.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      let buf = Bytes.create size in
      let pos = ref 0 in
      let eof = ref false in
      while (not !eof) && !pos < size do
        let n =
          Xfault.Io.retry_eintr (fun () ->
              Xfault.Io.read fd buf !pos (size - !pos))
        in
        if n = 0 then eof := true else pos := !pos + n
      done;
      Bytes.sub_string buf 0 !pos)

let scan_file ?offset path =
  match read_file path with
  | s -> scan_string ?offset s
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let scan_records s =
  let len = String.length s in
  let ops = ref [] in
  let pos = ref 0 in
  match
    while !pos < len do
      if !pos + header_size > len then bad "truncated record header at byte %d" !pos;
      let n = Int32.to_int (String.get_int32_le s !pos) in
      if n < 1 || n > max_record then
        bad "implausible record length %d at byte %d" n !pos;
      if n > len - !pos - header_size then
        bad "truncated record payload at byte %d" !pos;
      let stored = String.get_int64_le s (!pos + 4) in
      if not (Int64.equal stored (checksum s (!pos + header_size) n)) then
        bad "record checksum mismatch at byte %d" !pos;
      (match decode_op (String.sub s (!pos + header_size) n) with
      | Ok op -> ops := op :: !ops
      | Error m -> bad "undecodable record at byte %d (%s)" !pos m);
      pos := !pos + header_size + n
    done
  with
  | () -> Ok (List.rev !ops)
  | exception Malformed m -> Error m

(* --- positions and tailing ---------------------------------------------- *)

type position = { file : int; off : int }

let start_position = { file = 0; off = String.length magic }

let position_compare a b =
  if a.file <> b.file then Stdlib.compare a.file b.file
  else Stdlib.compare a.off b.off

let position_to_string p = Printf.sprintf "(%d, %d)" p.file p.off
let file_name = Layout.wal

let list_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           match Layout.classify name with
           | Layout.Wal i -> Some (i, Filename.concat dir name)
           | _ -> None)
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

type batch = { b_records : string; b_count : int; b_next : position }

type tail_error =
  | Position_pruned of { earliest : position }
  | Tail_error of string

let tail_error_to_string = function
  | Position_pruned { earliest } ->
    Printf.sprintf "position pruned; earliest retained is %s"
      (position_to_string earliest)
  | Tail_error msg -> msg

let default_tail_bytes = 256 * 1024

let read_range path ~off ~len =
  let fd = Xfault.Io.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      let buf = Bytes.create len in
      let pos = ref 0 in
      let eof = ref false in
      while (not !eof) && !pos < len do
        let n =
          Xfault.Io.retry_eintr (fun () ->
              Xfault.Io.read fd buf !pos (len - !pos))
        in
        if n = 0 then eof := true else pos := !pos + n
      done;
      Bytes.sub_string buf 0 !pos)

(* Walk complete, checksum-valid records in [data] (a window read from
   [file_off] of a file [size] bytes long).  Returns the byte length of
   the good prefix, how many records it holds, and why the walk stopped:
   [`More] — the next record exists in the file but overruns the window;
   [`Eof] — clean end of file; [`End] — a torn, in-flight or garbage
   record (never shipped; rotation decides whether to skip it). *)
let walk_records data ~file_off ~size =
  let win = String.length data in
  let rec go p count =
    if p + header_size > win then
      if file_off + p = size then (p, count, `Eof)
      else if file_off + p + header_size <= size then (p, count, `More)
      else (p, count, `End)
    else begin
      let n = Int32.to_int (String.get_int32_le data p) in
      if n < 1 || n > max_record then (p, count, `End)
      else if p + header_size + n > win then
        if file_off + p + header_size + n <= size then (p, count, `More)
        else (p, count, `End)
      else begin
        let stored = String.get_int64_le data (p + 4) in
        if not (Int64.equal stored (checksum data (p + header_size) n)) then
          (p, count, `End)
        else go (p + header_size + n) (count + 1)
      end
    end
  in
  go 0 0

let tail ~dir ?(max_bytes = default_tail_bytes) pos =
  let max_bytes = max max_bytes 4096 in
  let files = list_files dir in
  let next_file_after seq =
    List.find_map (fun (i, _) -> if i > seq then Some i else None) files
  in
  let advance seq =
    Ok { b_records = ""; b_count = 0; b_next = { file = seq; off = String.length magic } }
  in
  let wait () = Ok { b_records = ""; b_count = 0; b_next = pos } in
  let pruned file =
    Error (Position_pruned { earliest = { file; off = String.length magic } })
  in
  (* A listed file that is gone by the time it is read was pruned under
     the cursor (a checkpoint ran between the listing and the read). *)
  let vanished () =
    match List.find_opt (fun (i, _) -> i > pos.file) (list_files dir) with
    | Some (seq, _) -> pruned seq
    | None -> pruned (pos.file + 1)
  in
  let failed fn e =
    Error (Tail_error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
  in
  match files with
  | [] -> Error (Tail_error (Printf.sprintf "no WAL files in %s" dir))
  | (earliest, _) :: _ ->
    if pos.file < earliest then pruned earliest
    else if pos.off < String.length magic then
      Error
        (Tail_error
           (Printf.sprintf "position %s is inside the magic" (position_to_string pos)))
    else begin
      match List.assoc_opt pos.file files with
      | None -> (
        (* A file that never materialised (a failed rotation during a
           degraded episode).  If the log moved past it, skip ahead;
           otherwise the position is beyond the end of the log. *)
        match next_file_after pos.file with
        | Some seq -> advance seq
        | None ->
          Error
            (Tail_error
               (Printf.sprintf "position %s is beyond the end of the log"
                  (position_to_string pos))))
      | Some path -> (
        match (Unix.stat path).Unix.st_size with
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> vanished ()
        | exception Unix.Unix_error (e, fn, _) -> failed fn e
        | size ->
          if pos.off > size then begin
            match next_file_after pos.file with
            | Some seq -> advance seq (* dead file: skip its garbage *)
            | None ->
              if pos.off = String.length magic then wait () (* mid-create *)
              else
                Error
                  (Tail_error
                     (Printf.sprintf "position %s is beyond the end of %s (%d bytes)"
                        (position_to_string pos) (Filename.basename path) size))
          end
          else begin
            let rec attempt window =
              match read_range path ~off:pos.off ~len:(min window (size - pos.off)) with
              | exception Sys_error msg -> Error (Tail_error msg)
              | exception Unix.Unix_error (Unix.ENOENT, _, _) -> vanished ()
              | exception Unix.Unix_error (e, fn, _) -> failed fn e
              | data -> (
                let good, count, reason = walk_records data ~file_off:pos.off ~size in
                if count > 0 then
                  Ok
                    {
                      b_records = String.sub data 0 good;
                      b_count = count;
                      b_next = { pos with off = pos.off + good };
                    }
                else
                  match reason with
                  | `More ->
                    (* The first record alone overruns the window: widen
                       to exactly that record (bounded by max_record). *)
                    let need =
                      if String.length data >= header_size then
                        header_size + Int32.to_int (String.get_int32_le data 0)
                      else header_size + max_record
                    in
                    if need > window then attempt need else wait ()
                  | `Eof | `End -> (
                    (* Caught up, or stalled on a torn/in-flight tail.
                       If the log already rotated past this file, the
                       unread tail bytes are unacknowledged garbage —
                       skip to the next file; otherwise poll again. *)
                    match next_file_after pos.file with
                    | Some seq -> advance seq
                    | None -> wait ()))
            in
            attempt max_bytes
          end)
    end

(* --- appending ---------------------------------------------------------- *)

type writer = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  sync_every : int;
  mutable unsynced : int; (* records appended since the last fsync *)
  mutable off : int; (* logical end of log, buffered bytes included *)
  mutable durable : int; (* offset covered by the last successful fsync *)
  mutable closed : bool;
}

let flush_buf w =
  if Buffer.length w.buf > 0 then begin
    (* The buffer is cleared before the write: if the disk fails mid-way
       the records are gone from the writer.  The store's degraded-state
       machinery owns that window — the records are still in its
       memtable and the recovery compaction re-persists them. *)
    let s = Buffer.contents w.buf in
    Buffer.clear w.buf;
    Xfault.Io.write_all w.fd s 0 (String.length s)
  end

let create ?(sync_every = 1) path =
  let fd = Xfault.Io.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match
    let size = (Unix.fstat fd).Unix.st_size in
    if size = 0 then begin
      (* The magic write doubles as the disk-health probe the store's
         recovery path relies on: it must actually reach the platter. *)
      Xfault.Io.write_all fd magic 0 (String.length magic);
      Xfault.Io.retry_eintr (fun () -> Xfault.Io.fsync fd);
      String.length magic
    end
    else begin
      let hdr = Bytes.create (String.length magic) in
      let pos = ref 0 in
      let eof = ref false in
      while (not !eof) && !pos < Bytes.length hdr do
        let n =
          Xfault.Io.retry_eintr (fun () ->
              Xfault.Io.read fd hdr !pos (Bytes.length hdr - !pos))
        in
        if n = 0 then eof := true else pos := !pos + n
      done;
      if !pos <> Bytes.length hdr || not (String.equal (Bytes.to_string hdr) magic)
      then invalid_arg (Printf.sprintf "Xlog.Wal.create: %s is not a WAL file" path);
      ignore (Unix.lseek fd 0 Unix.SEEK_END : int);
      size
    end
  with
  | off ->
    {
      fd;
      buf = Buffer.create 4096;
      sync_every;
      unsynced = 0;
      off;
      durable = off;
      closed = false;
    }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let sync w =
  flush_buf w;
  Xfault.Io.retry_eintr (fun () -> Xfault.Io.fsync w.fd);
  w.unsynced <- 0;
  w.durable <- w.off

let append w op =
  if w.closed then invalid_arg "Xlog.Wal.append: closed";
  let r = encode_record op in
  Buffer.add_string w.buf r;
  w.off <- w.off + String.length r;
  w.unsynced <- w.unsynced + 1;
  if w.sync_every > 0 && w.unsynced >= w.sync_every then sync w
  else if Buffer.length w.buf >= 1 lsl 20 then flush_buf w

let append_raw w ?(records = 1) s =
  if w.closed then invalid_arg "Xlog.Wal.append_raw: closed";
  if String.length s > 0 then begin
    Buffer.add_string w.buf s;
    w.off <- w.off + String.length s;
    w.unsynced <- w.unsynced + records;
    if w.sync_every > 0 && w.unsynced >= w.sync_every then sync w
    else if Buffer.length w.buf >= 1 lsl 20 then flush_buf w
  end

let offset w = w.off
let durable_offset w = w.durable

let close w =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    Unix.close w.fd
  end

let abort w =
  if not w.closed then begin
    w.closed <- true;
    Buffer.clear w.buf;
    (try Unix.close w.fd with Unix.Unix_error _ -> ())
  end
