(* The files of a store directory: what each is called, how a listing
   classifies them, and the whole-file read, durable write and
   checkpoint codec that every protocol over the directory shares.  No
   other module spells a file name.  The layout itself is tabled in
   xlog.mli (and DESIGN.md §12); keep the three in step. *)

let wal i = Printf.sprintf "wal-%06d.log" i
let base i = Printf.sprintf "base-%06d.xseq" i
let cut_base i cut = Printf.sprintf "base-%06d-%06d.xseq" i cut
let checkpoint = "checkpoint"
let xfer_tmp = "xfer.tmp"
let xfer_ready = "xfer.ready"
let manifest = "MANIFEST"

type kind =
  | Wal of int
  | Base of int option  (** the no-rotation serial of a cut base *)
  | Checkpoint
  | Other

let classify name =
  match Scanf.sscanf_opt name "wal-%06d.log%!" Fun.id with
  | Some i -> Wal i
  | None ->
    if String.equal name checkpoint then Checkpoint
    else if
      String.starts_with ~prefix:"base-" name
      && Filename.check_suffix name ".xseq"
    then Base (Scanf.sscanf_opt name "base-%06d-%06d.xseq%!" (fun _ c -> c))
    else Other

(* @raise Sys_error *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file_sync path s =
  let fd =
    Xfault.Io.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Xfault.Io.write_all fd s 0 (String.length s);
      Xfault.Io.retry_eintr (fun () -> Xfault.Io.fsync fd))

(* Errors a filesystem uses to refuse fsync-on-this-kind-of-handle
   outright (directories on some filesystems, fds without fsync support,
   permission shapes).  These are the only "best-effort" cases; a real
   I/O failure — [EIO], [ENOSPC] — means the commit may not have reached
   the platter and must escape into the degraded-state path. *)
let fsync_refusal = function
  | Unix.EINVAL | Unix.EOPNOTSUPP | Unix.ENOSYS | Unix.EBADF | Unix.EROFS
  | Unix.EACCES | Unix.EPERM | Unix.EISDIR | Unix.ENOENT | Unix.ENOTDIR ->
    true
  | _ -> false

let fsync_path path =
  match Xfault.Io.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) when fsync_refusal e -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Xfault.Io.retry_eintr (fun () -> Xfault.Io.fsync fd)
        with Unix.Unix_error (e, _, _) when fsync_refusal e -> ())

(* --- checkpoint codec --------------------------------------------------- *)

let ckp_magic = "xlogckp1"
let ckp_version = 1

type checkpoint = {
  c_wal_index : int;
  c_wal_offset : int;
  c_next_id : int;
  c_base : string;  (** "" = no base snapshot *)
  c_ids : int array;
}

let write_checkpoint dir c =
  let body = Buffer.create (64 + (8 * Array.length c.c_ids)) in
  Buffer.add_int32_le body (Int32.of_int ckp_version);
  Buffer.add_int32_le body (Int32.of_int c.c_wal_index);
  Buffer.add_int64_le body (Int64.of_int c.c_wal_offset);
  Buffer.add_int64_le body (Int64.of_int c.c_next_id);
  Buffer.add_int32_le body (Int32.of_int (String.length c.c_base));
  Buffer.add_string body c.c_base;
  Buffer.add_int64_le body (Int64.of_int (Array.length c.c_ids));
  Array.iter (fun id -> Buffer.add_int64_le body (Int64.of_int id)) c.c_ids;
  let body = Buffer.contents body in
  let b = Buffer.create (16 + String.length body) in
  Buffer.add_string b ckp_magic;
  Buffer.add_int64_le b
    (Xstorage.Store.checksum_string body 0 (String.length body));
  Buffer.add_string b body;
  let tmp = Filename.concat dir (checkpoint ^ ".tmp") in
  write_file_sync tmp (Buffer.contents b);
  Xfault.Io.rename tmp (Filename.concat dir checkpoint);
  fsync_path dir

let checkpoint_of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let len = String.length s in
  if len < 16 || not (String.equal (String.sub s 0 8) ckp_magic) then
    fail "bad magic"
  else if
    not (Int64.equal (String.get_int64_le s 8)
           (Xstorage.Store.checksum_string s 16 (len - 16)))
  then fail "checksum mismatch"
  else begin
    let pos = ref 16 in
    let exception Bad of string in
    let u32 () =
      if !pos + 4 > len then raise (Bad "truncated");
      let v = Int32.to_int (String.get_int32_le s !pos) in
      pos := !pos + 4;
      if v < 0 then raise (Bad "negative field");
      v
    in
    let i64 () =
      if !pos + 8 > len then raise (Bad "truncated");
      let raw = String.get_int64_le s !pos in
      pos := !pos + 8;
      let v = Int64.to_int raw in
      if (not (Int64.equal (Int64.of_int v) raw)) || v < 0 then
        raise (Bad "field out of range");
      v
    in
    match
      let version = u32 () in
      if version <> ckp_version then
        raise (Bad (Printf.sprintf "unsupported version %d" version));
      let c_wal_index = u32 () in
      let c_wal_offset = i64 () in
      let c_next_id = i64 () in
      let blen = u32 () in
      if blen > len - !pos then raise (Bad "base name overruns");
      let c_base = String.sub s !pos blen in
      pos := !pos + blen;
      let nids = i64 () in
      if nids > (len - !pos) / 8 then raise (Bad "id table overruns");
      let c_ids = Array.init nids (fun _ -> i64 ()) in
      if !pos <> len then raise (Bad "trailing bytes");
      { c_wal_index; c_wal_offset; c_next_id; c_base; c_ids }
    with
    | c -> Ok c
    | exception Bad m -> fail "%s" m
  end

(* [Ok None]: no checkpoint at [path]. *)
let read_checkpoint path =
  if not (Sys.file_exists path) then Ok None
  else
    match read_file path with
    | exception Sys_error m -> Error (Printf.sprintf "unreadable (%s)" m)
    | s -> Result.map Option.some (checkpoint_of_string s)
