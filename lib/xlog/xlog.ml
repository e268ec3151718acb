(* Durable ingestion store: WAL + delta segments + tombstones + compaction.
   See xlog.mli for the design contract. *)

module T = Xmlcore.Xml_tree
module Pattern = Xquery.Pattern
module Wal = Wal
module Iset = Set.Make (Int)

let ckp_magic = "xlogckp1"
let ckp_version = 1
let wal_file dir i = Filename.concat dir (Wal.file_name i)
let base_file i = Printf.sprintf "base-%06d.xseq" i

(* No-rotation (replica) compaction cuts mid-file, so the WAL index alone
   cannot name the snapshot; a per-open monotone cut counter keeps the
   names unique — a snapshot file is never overwritten while a checkpoint
   might still reference it. *)
let cut_base_file wal_index cut = Printf.sprintf "base-%06d-%06d.xseq" wal_index cut

(* --- view --------------------------------------------------------------- *)

(* A sealed segment: a real index over a batch of documents plus the map
   from its local ids (dense array indices) to global ids.  [ids] is
   strictly increasing, and across base :: segs the id ranges are
   disjoint and ascending, so per-segment sorted answers concatenate
   into a globally sorted answer. *)
type seg = { index : Xseq.t; ids : int array }

type view = {
  base : seg option;  (** compacted base (ids may have gaps) *)
  segs : seg list;  (** sealed deltas, oldest first *)
  pending : (int * T.t) list;  (** memtable, newest first; contiguous ids *)
  npending : int;
  tombs : Iset.t;
  stamp : int;  (** changes on seal/compaction install, not on writes *)
}

type recovery = {
  replayed : int;
  recovered_pending : int;
  torn : (string * string) list;
}

type t = {
  dirname : string;
  view : view Atomic.t;
  writer_m : Mutex.t;
  mutable wal : Wal.writer;
  mutable wal_index : int;
  mutable next_id : int;
  mutable compacting : bool;
  mutable bg : Thread.t option;
  mutable closed : bool;
  mutable cut_seq : int;  (** next no-rotation snapshot serial *)
  mutable base_settled : bool;
      (** the base (if any) is what a rebuild would write: an xseqcol2
          file built under [config].  With no deltas, memtable or
          tombstones on top, {!compact} has nothing to do. *)
  mutable retain_wal : unit -> int option;
      (** replication retention hook: [Some seq] keeps WAL files [>= seq]
          through pruning (live subscriptions still need them) *)
  sync_every : int;
  memtable_limit : int;
  max_segments : int;
  domains : int;
  pool : Xutil.Domain_pool.t option;
  config : Xseq.config;
  recovery_info : recovery;
  degraded : string option Atomic.t;
      (** [Some reason]: the write path hit a disk fault and the store is
          read-only until {!try_recover} succeeds.  Read without the
          writer lock (health checks must not contend with writers). *)
  last_probe : float Atomic.t;
  probe_interval : float;
  quarantined : bool Atomic.t;
      (** Scrub found at-rest corruption: the degraded state is sticky
          against the WAL-rotation probe (a working disk says nothing
          about bit rot).  Only a clean scrub pass or a {!reseed} lifts
          it. *)
}

exception Degraded of string

type prepared = {
  p_stamp : int;
  p_plans : (seg * Xseq.prepared) list;
  p_pattern : Pattern.t;
}

let locked t f =
  Mutex.lock t.writer_m;
  match f () with
  | v ->
    Mutex.unlock t.writer_m;
    v
  | exception e ->
    Mutex.unlock t.writer_m;
    raise e

(* --- checkpoint codec --------------------------------------------------- *)

type checkpoint = {
  c_wal_index : int;
  c_wal_offset : int;
  c_next_id : int;
  c_base : string;  (** "" = no base snapshot *)
  c_ids : int array;
}

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
  Buffer.add_int64_le b (Xstorage.Store.checksum_string body 0 (String.length body));
  Buffer.add_string b body;
  let tmp = Filename.concat dir "checkpoint.tmp" in
  write_file_sync tmp (Buffer.contents b);
  Xfault.Io.rename tmp (Filename.concat dir "checkpoint");
  fsync_path dir

let read_checkpoint path =
  if not (Sys.file_exists path) then Ok None
  else begin
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error m -> fail "unreadable (%s)" m
    | s ->
      let len = String.length s in
      if len < 16 || not (String.equal (String.sub s 0 8) ckp_magic) then
        fail "bad magic"
      else begin
        let crc = String.get_int64_le s 8 in
        if not (Int64.equal crc (Xstorage.Store.checksum_string s 16 (len - 16)))
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
          | c -> Ok (Some c)
          | exception Bad m -> fail "%s" m
        end
      end
  end

(* --- segments ----------------------------------------------------------- *)

let build_seg t ids docs =
  let index = Xseq.build ~domains:t.domains ?pool:t.pool ~config:t.config docs in
  { index; ids }

let fresh_stamp () = Xseq.next_generation ()

let seg_query ?stats seg pattern =
  List.map (fun local -> seg.ids.(local)) (Xseq.query ?stats seg.index pattern)

let sealed v = match v.base with Some b -> b :: v.segs | None -> v.segs

let mem_sorted (ids : int array) id =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length ids && ids.(!lo) = id

(* --- queries ------------------------------------------------------------ *)

let pending_hits v pattern =
  List.rev
    (List.filter_map
       (fun (id, doc) ->
         if (not (Iset.mem id v.tombs)) && Xquery.Embedding.matches pattern doc
         then Some id
         else None)
       v.pending)

let answer_view ?stats v pattern =
  let sealed_hits =
    List.concat_map
      (fun seg ->
        List.filter
          (fun id -> not (Iset.mem id v.tombs))
          (seg_query ?stats seg pattern))
      (sealed v)
  in
  sealed_hits @ pending_hits v pattern

let query ?stats t pattern = answer_view ?stats (Atomic.get t.view) pattern
let query_xpath ?stats t s = query ?stats t (Xquery.Xpath_parser.parse s)

let prepare t pattern =
  let v = Atomic.get t.view in
  let p_plans =
    List.map (fun seg -> (seg, Xseq.prepare seg.index pattern)) (sealed v)
  in
  { p_stamp = v.stamp; p_plans; p_pattern = pattern }

let run_prepared ?stats t p =
  let v = Atomic.get t.view in
  if v.stamp <> p.p_stamp then
    invalid_arg
      (Printf.sprintf
         "Xlog.run_prepared: plan for structure %d run against structure %d"
         p.p_stamp v.stamp);
  let sealed_hits =
    List.concat_map
      (fun (seg, plan) ->
        List.filter_map
          (fun local ->
            let id = seg.ids.(local) in
            if Iset.mem id v.tombs then None else Some id)
          (Xseq.run_prepared ?stats seg.index plan))
      p.p_plans
  in
  sealed_hits @ pending_hits v p.p_pattern

(* --- mutations ---------------------------------------------------------- *)

let check_open t = if t.closed then invalid_arg "Xlog: store is closed"

(* --- degraded state ------------------------------------------------------

   Any disk fault on the write path (WAL append/sync, checkpoint commit,
   snapshot save) flips [t.degraded] to [Some reason]: mutations raise
   {!Degraded}, queries keep serving the installed view.  [try_recover]
   probes the disk by rotating to a fresh WAL (whose magic write+fsync
   must reach the platter) and, on success, re-persists everything
   visible with a full synchronous compaction — closing the window of
   acknowledged records whose WAL bytes were lost when the disk died. *)

let degraded_reason t = Atomic.get t.degraded

let check_writable t =
  check_open t;
  match Atomic.get t.degraded with
  | Some reason -> raise (Degraded reason)
  | None -> ()

(* [EINTR]/[EAGAIN] never escape {!Wal}; any other [Unix_error] on the
   write path means bytes may be lost — degrade rather than guess. *)
let degrade_and_raise t ~what e fn =
  let reason =
    Printf.sprintf "%s: %s%s" what (Unix.error_message e)
      (if String.equal fn "" then "" else " (" ^ fn ^ ")")
  in
  Atomic.set t.degraded (Some reason);
  raise (Degraded reason)

(* writer_m held. *)
let wal_append t op =
  try Wal.append t.wal op
  with Unix.Unix_error (e, fn, _) -> degrade_and_raise t ~what:"wal append" e fn

(* writer_m held. *)
let wal_sync t =
  try Wal.sync t.wal
  with Unix.Unix_error (e, fn, _) -> degrade_and_raise t ~what:"wal sync" e fn

let seal_locked t =
  let v = Atomic.get t.view in
  if v.npending > 0 then begin
    let batch = Array.of_list (List.rev v.pending) in
    let ids = Array.map fst batch in
    let docs = Array.map snd batch in
    let seg = build_seg t ids docs in
    Atomic.set t.view
      {
        v with
        segs = v.segs @ [ seg ];
        pending = [];
        npending = 0;
        stamp = fresh_stamp ();
      }
  end

let rotate_to_locked t target =
  (try Wal.close t.wal
   with Unix.Unix_error (e, fn, _) ->
     (* The final flush failed: the old fd is useless.  Drop it (the
        records are still in the view) and degrade. *)
     Wal.abort t.wal;
     degrade_and_raise t ~what:"wal rotate (close)" e fn);
  t.wal_index <- target;
  try t.wal <- Wal.create ~sync_every:t.sync_every (wal_file t.dirname t.wal_index)
  with Unix.Unix_error (e, fn, _) ->
    degrade_and_raise t ~what:"wal rotate (create)" e fn

let rotate_locked t = rotate_to_locked t (t.wal_index + 1)

type snapshot = {
  s_view : view;
  s_wal_index : int;  (** replay starts in this WAL file... *)
  s_wal_offset : int;  (** ...at this offset (just past the magic after
                           a rotation; mid-file for a no-rotation cut) *)
  s_base_name : string;  (** snapshot file to write, "" if no live docs *)
  s_next_id : int;
}

(* Must be called with [writer_m] held.  Seals the memtable and cuts the
   WAL — by rotating to a fresh file (the primary shape: every record in
   files >= [s_wal_index] post-dates the snapshot), or, with
   [rotate = false] (the replica shape: the file sequence must mirror the
   primary's byte-for-byte, so a follower may never invent a rotation),
   by syncing and recording the mid-file offset — then hands the cut to
   the (possibly backgrounded) rebuild. *)
let compact_cut_locked ?(rotate = true) t =
  if t.compacting then None
  else begin
    t.compacting <- true;
    match
      seal_locked t;
      if rotate then rotate_locked t else wal_sync t
    with
    | () ->
      let s_wal_offset =
        if rotate then String.length Wal.magic else Wal.offset t.wal
      in
      let s_base_name =
        if rotate then base_file t.wal_index
        else begin
          let name = cut_base_file t.wal_index t.cut_seq in
          t.cut_seq <- t.cut_seq + 1;
          name
        end
      in
      Some
        {
          s_view = Atomic.get t.view;
          s_wal_index = t.wal_index;
          s_wal_offset;
          s_base_name;
          s_next_id = t.next_id;
        }
    | exception e ->
      t.compacting <- false;
      raise e
  end

let rec drop_prefix prefix l =
  match (prefix, l) with
  | [], rest -> rest
  | p :: prefix', x :: l' when p == x -> drop_prefix prefix' l'
  | _ -> invalid_arg "Xlog: segment list diverged from compaction snapshot"

let prune_files t keep_wal_from keep_base =
  (* Live replication subscriptions may still be shipping files older
     than the checkpoint cut; the retention hook holds them back.  (A
     pruned follower is not lost — {!Wal.tail} answers Position_pruned
     and it re-seeds — but not pruning under an active stream is far
     cheaper.) *)
  let keep_wal_from =
    match t.retain_wal () with
    | Some seq -> min seq keep_wal_from
    | None -> keep_wal_from
    | exception _ -> keep_wal_from
  in
  Array.iter
    (fun name ->
      let doomed =
        (match Scanf.sscanf_opt name "wal-%06d.log%!" Fun.id with
        | Some i -> i < keep_wal_from
        | None -> false)
        || String.length name > 5
           && String.equal (String.sub name 0 5) "base-"
           && Filename.check_suffix name ".xseq"
           && not (String.equal name keep_base)
      in
      if doomed then try Sys.remove (Filename.concat t.dirname name) with Sys_error _ -> ())
    (Sys.readdir t.dirname)

(* Bases are compressed snapshots; directories written before that carry
   xseqcol1 bases, which still load (and are rewritten by the next
   compaction, see [base_settled]). *)
let save_base t name seg =
  let path = Filename.concat t.dirname name in
  Xseq.save ~format:Xstorage.Store.Col2 seg.index path;
  fsync_path path

let compact_finish t snap =
  Fun.protect
    ~finally:(fun () -> locked t (fun () -> t.compacting <- false))
    (fun () ->
      let v = snap.s_view in
      (* Collect the live documents of the snapshot, in id order. *)
      let live = ref [] in
      List.iter
        (fun seg ->
          Array.iteri
            (fun local id ->
              if not (Iset.mem id v.tombs) then
                live := (id, Xseq.document seg.index local) :: !live)
            seg.ids)
        (sealed v);
      let live = Array.of_list (List.rev !live) in
      let base, name, ids =
        if Array.length live = 0 then (None, "", [||])
        else begin
          let ids = Array.map fst live in
          let seg = build_seg t ids (Array.map snd live) in
          let name = snap.s_base_name in
          save_base t name seg;
          (Some seg, name, ids)
        end
      in
      (* Commit point: once the checkpoint renames into place, WALs before
         the cut and older base snapshots are garbage. *)
      write_checkpoint t.dirname
        {
          c_wal_index = snap.s_wal_index;
          c_wal_offset = snap.s_wal_offset;
          c_next_id = snap.s_next_id;
          c_base = name;
          c_ids = ids;
        };
      prune_files t snap.s_wal_index name;
      (* Install: keep whatever sealed or tombstoned after the cut. *)
      locked t (fun () ->
          let cur = Atomic.get t.view in
          (match (cur.base, v.base) with
          | Some a, Some b when a == b -> ()
          | None, None -> ()
          | _ -> invalid_arg "Xlog: base diverged from compaction snapshot");
          t.base_settled <- true;
          Atomic.set t.view
            {
              base;
              segs = drop_prefix v.segs cur.segs;
              pending = cur.pending;
              npending = cur.npending;
              tombs = Iset.diff cur.tombs v.tombs;
              stamp = fresh_stamp ();
            }))

(* Translate a disk fault while writing a base and its checkpoint into
   degraded state.  {!Xfault.Crashed} (simulated power loss) passes
   through untouched: the harness owns recovery and nothing may touch the
   disk. *)
let disk_guard t ~what f =
  try f () with
  | Xfault.Crashed as e -> raise e
  | Unix.Unix_error (e, fn, _) -> degrade_and_raise t ~what e fn
  | Sys_error msg ->
    let reason = what ^ ": " ^ msg in
    Atomic.set t.degraded (Some reason);
    raise (Degraded reason)

let compact_finish_guarded t snap =
  disk_guard t ~what:"checkpoint" (fun () -> compact_finish t snap)

let spawn_compaction t snap =
  t.bg <-
    Some
      (Thread.create
         (fun () ->
           try compact_finish_guarded t snap with
           | Xfault.Crashed -> ()
           | Degraded reason ->
             Printf.eprintf
               "xlog: store degraded during background compaction: %s\n%!"
               reason
           | e ->
             Printf.eprintf "xlog: background compaction failed: %s\n%!"
               (Printexc.to_string e))
         ())

(* A rebuild would only rewrite the current base: nothing sits on top of
   it and it already has the current format and configuration.
   writer_m held. *)
let settled_locked t =
  let v = Atomic.get t.view in
  t.base_settled && v.segs = [] && v.npending = 0 && Iset.is_empty v.tombs

(* [force] rebuilds even a settled store (recovery's re-persist). *)
let compact_with ~force ~wait ~rotate t =
  match
    locked t (fun () ->
        check_writable t;
        if (not force) && (not t.compacting) && settled_locked t then `Settled
        else
          match compact_cut_locked ~rotate t with
          | None -> `Busy
          | Some snap ->
            if not wait then spawn_compaction t snap;
            `Cut snap)
  with
  | `Settled -> true
  | `Busy -> false
  | `Cut snap ->
    if wait then compact_finish_guarded t snap;
    true

let compact ?(wait = true) ?(rotate = true) t =
  compact_with ~force:false ~wait ~rotate t

(* --- recovery probe ------------------------------------------------------ *)

let try_recover t =
  let attempt =
    locked t (fun () ->
        check_open t;
        match Atomic.get t.degraded with
        | None -> `Healthy
        | Some _ when Atomic.get t.quarantined ->
          (* A scrub quarantine: the disk works, the bytes are wrong.
             Rotating the WAL proves nothing — stay down until a clean
             scrub pass or a snapshot re-seed replaces the bad region. *)
          `Still_degraded
        | Some _ when t.compacting -> `Busy
        | Some _ -> (
          (* Probe the disk: rotate to a fresh WAL file.  {!Wal.create}
             writes and fsyncs the magic, so success means appends reach
             stable storage again. *)
          Wal.abort t.wal;
          t.wal_index <- t.wal_index + 1;
          match
            Wal.create ~sync_every:t.sync_every (wal_file t.dirname t.wal_index)
          with
          | wal ->
            t.wal <- wal;
            Atomic.set t.degraded None;
            `Recovered
          | exception Xfault.Crashed -> raise Xfault.Crashed
          | exception (Unix.Unix_error _ | Sys_error _ | Invalid_argument _) ->
            `Still_degraded))
  in
  match attempt with
  | `Healthy -> true
  | `Busy | `Still_degraded -> false
  | `Recovered -> (
    (* The WAL records buffered when the disk died are gone from disk
       but still visible in the view; a full synchronous compaction
       re-persists everything before we report the store writable. *)
    try
      ignore (compact_with ~force:true ~wait:true ~rotate:true t : bool);
      true
    with
    | Xfault.Crashed as e -> raise e
    | Degraded _ -> false)

(* Rate-limited: write paths call this before taking the lock (never
   from inside it — [try_recover]'s compaction needs the lock). *)
let maybe_probe t =
  match Atomic.get t.degraded with
  | None -> ()
  | Some _ ->
    let now = Unix.gettimeofday () in
    if now -. Atomic.get t.last_probe >= t.probe_interval then begin
      Atomic.set t.last_probe now;
      ignore (try_recover t : bool)
    end

let insert t doc =
  maybe_probe t;
  locked t (fun () ->
      check_writable t;
      let id = t.next_id in
      wal_append t (Wal.Insert (id, doc));
      t.next_id <- id + 1;
      let v = Atomic.get t.view in
      Atomic.set t.view
        { v with pending = (id, doc) :: v.pending; npending = v.npending + 1 };
      if v.npending + 1 >= t.memtable_limit then begin
        seal_locked t;
        if
          List.length (Atomic.get t.view).segs > t.max_segments
          && not t.compacting
        then
          match compact_cut_locked t with
          | Some snap -> spawn_compaction t snap
          | None -> ()
      end;
      id)

let live_locked t v id =
  (* Is [id] a live document of [v]?  (writer_m held: next_id is stable.) *)
  (not (Iset.mem id v.tombs))
  && (id >= t.next_id - v.npending
     || List.exists (fun seg -> mem_sorted seg.ids id) (sealed v))

let remove t id =
  maybe_probe t;
  locked t (fun () ->
      check_writable t;
      let v = Atomic.get t.view in
      if id < 0 || id >= t.next_id || not (live_locked t v id) then false
      else begin
        wal_append t (Wal.Remove id);
        Atomic.set t.view { v with tombs = Iset.add id v.tombs };
        true
      end)

let flush t =
  maybe_probe t;
  locked t (fun () ->
      check_writable t;
      seal_locked t;
      wal_sync t)

(* The paper's bulk load for an empty store: one build over the whole
   batch instead of a memtable's worth at a time plus the compactions
   that would fold those segments together.  The WAL rotates first, so
   the checkpoint's replay point is the start of a fresh file and the
   log holds only what follows the seed; the base is durable before the
   checkpoint names it.  A crash before the checkpoint rename leaves an
   empty store (the base file is an orphan the next prune removes). *)
let seed t docs =
  maybe_probe t;
  locked t (fun () ->
      check_writable t;
      let v = Atomic.get t.view in
      if t.next_id <> 0 || t.compacting || Option.is_some v.base then
        invalid_arg "Xlog.seed: the store is not empty";
      let n = Array.length docs in
      let ids = Array.init n Fun.id in
      if n > 0 then begin
        let seg = build_seg t ids docs in
        rotate_locked t;
        let name = base_file t.wal_index in
        disk_guard t ~what:"seed" (fun () ->
            save_base t name seg;
            write_checkpoint t.dirname
              {
                c_wal_index = t.wal_index;
                c_wal_offset = String.length Wal.magic;
                c_next_id = n;
                c_base = name;
                c_ids = ids;
              });
        t.next_id <- n;
        t.base_settled <- true;
        Atomic.set t.view
          {
            base = Some seg;
            segs = [];
            pending = [];
            npending = 0;
            tombs = Iset.empty;
            stamp = fresh_stamp ();
          };
        prune_files t t.wal_index name
      end;
      ids)

(* --- replication (follower side) -----------------------------------------

   A follower's store is a byte-for-byte mirror of the primary's WAL
   file sequence: batches land at exactly the offsets the primary wrote
   them, rotations are replayed as rotations, so a (file, offset)
   position means the same thing on every node — the follower's own log
   end doubles as its resume cursor across restarts (open_'s torn-tail
   truncation trims any half-received batch back to a record boundary),
   and after a promotion the new primary simply keeps appending where
   the mirror ends. *)

let replica_apply t ~from ~next records =
  locked t (fun () ->
      check_writable t;
      let cur = { Wal.file = t.wal_index; off = Wal.offset t.wal } in
      if Wal.position_compare from cur <> 0 then
        Error
          (Printf.sprintf "batch from %s but the log ends at %s"
             (Wal.position_to_string from)
             (Wal.position_to_string cur))
      else begin
        match Wal.scan_records records with
        | Error msg -> Error ("refused batch: " ^ msg)
        | Ok ops ->
          if String.length records > 0 then begin
            (try Wal.append_raw t.wal ~records:(List.length ops) records
             with Unix.Unix_error (e, fn, _) ->
               degrade_and_raise t ~what:"replica append" e fn);
            List.iter
              (fun op ->
                match op with
                | Wal.Insert (id, doc) ->
                  if id >= t.next_id then t.next_id <- id + 1;
                  let v = Atomic.get t.view in
                  Atomic.set t.view
                    {
                      v with
                      pending = (id, doc) :: v.pending;
                      npending = v.npending + 1;
                    }
                | Wal.Remove id ->
                  let v = Atomic.get t.view in
                  Atomic.set t.view { v with tombs = Iset.add id v.tombs })
              ops;
            if (Atomic.get t.view).npending >= t.memtable_limit then begin
              seal_locked t;
              if
                List.length (Atomic.get t.view).segs > t.max_segments
                && not t.compacting
              then
                (* Replicas checkpoint without rotating: the file
                   sequence must keep mirroring the primary's. *)
                match compact_cut_locked ~rotate:false t with
                | Some snap -> spawn_compaction t snap
                | None -> ()
            end
          end;
          if next.Wal.file > t.wal_index then begin
            if next.Wal.off <> String.length Wal.magic then
              Error
                (Printf.sprintf "rotation to mid-file position %s"
                   (Wal.position_to_string next))
            else begin
              rotate_to_locked t next.Wal.file;
              Ok { Wal.file = t.wal_index; off = Wal.durable_offset t.wal }
            end
          end
          else if
            next.Wal.file < t.wal_index || next.Wal.off <> Wal.offset t.wal
          then
            Error
              (Printf.sprintf "batch advertised %s but the log ends at %s"
                 (Wal.position_to_string next)
                 (Wal.position_to_string
                    { Wal.file = t.wal_index; off = Wal.offset t.wal }))
          else begin
            wal_sync t;
            Ok { Wal.file = t.wal_index; off = Wal.durable_offset t.wal }
          end
      end)

let sync t =
  locked t (fun () ->
      check_writable t;
      wal_sync t)

let close t =
  let bg = locked t (fun () ->
      let bg = t.bg in
      t.bg <- None;
      bg)
  in
  (match bg with Some th -> Thread.join th | None -> ());
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        if Atomic.get t.degraded <> None then Wal.abort t.wal
        else
          try Wal.close t.wal
          with Unix.Unix_error _ | Xfault.Crashed -> Wal.abort t.wal
      end)

let abandon t =
  (* Tear down without touching the disk: for callers that just took a
     simulated {!Xfault.Crashed} power loss and will recover from the
     directory.  Buffered WAL records are dropped — exactly what the
     crash being simulated would have done. *)
  let bg = locked t (fun () ->
      let bg = t.bg in
      t.bg <- None;
      bg)
  in
  (match bg with Some th -> Thread.join th | None -> ());
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Wal.abort t.wal
      end)

(* --- introspection ------------------------------------------------------ *)

let doc_count t =
  let v = Atomic.get t.view in
  let sealed_docs =
    List.fold_left (fun acc seg -> acc + Array.length seg.ids) 0 (sealed v)
  in
  sealed_docs + v.npending - Iset.cardinal v.tombs

let next_id t = locked t (fun () -> t.next_id)
let pending t = (Atomic.get t.view).npending
let segments t = List.length (Atomic.get t.view).segs
let base t = Option.map (fun seg -> seg.index) (Atomic.get t.view).base
let tombstones t = Iset.cardinal (Atomic.get t.view).tombs
let generation t = (Atomic.get t.view).stamp
let wal_offset t = locked t (fun () -> Wal.offset t.wal)

let wal_position t =
  locked t (fun () -> { Wal.file = t.wal_index; off = Wal.offset t.wal })

let wal_durable_position t =
  locked t (fun () -> { Wal.file = t.wal_index; off = Wal.durable_offset t.wal })

let set_wal_retention t f = locked t (fun () -> t.retain_wal <- f)
let dir t = t.dirname
let recovery t = t.recovery_info

(* --- snapshot transfer -------------------------------------------------- *)

module Transfer = struct
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
  let tmp_dir dir = Filename.concat dir "xfer.tmp"
  let ready_dir dir = Filename.concat dir "xfer.ready"
  let manifest_file = "MANIFEST"
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
                    || String.equal name manifest_file
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
    let ckp_path = Filename.concat dir "checkpoint" in
    match
      if not (Sys.file_exists ckp_path) then Ok ""
      else begin
        let ic = open_in_bin ckp_path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Ok (really_input_string ic (in_channel_length ic)))
      end
    with
    | exception Sys_error m -> Error ("checkpoint unreadable: " ^ m)
    | Error m -> Error m
    | Ok "" ->
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
    | Ok ckp_bytes -> (
      match read_checkpoint ckp_path with
      | Error m -> Error ("checkpoint: " ^ m)
      | Ok None -> Error "checkpoint vanished mid-read"
      | Ok (Some c) -> (
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
        let wal_name = Wal.file_name c.c_wal_index in
        match (base_entries, stat_size wal_name) with
        | Error m, _ | _, Error m -> Error m
        | Ok base_entries, Ok wal_size ->
          if wal_size < c.c_wal_offset then
            Error
              (Printf.sprintf "%s shorter than the checkpoint cut" wal_name)
          else begin
            let entries =
              { e_name = "checkpoint"; e_size = String.length ckp_bytes }
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
    if String.equal e.e_name "checkpoint" then
      match read_checkpoint path with
      | Ok (Some _) -> Ok ()
      | Ok None -> Error "staged checkpoint missing"
      | Error m -> Error ("staged checkpoint: " ^ m)
    else if
      Scanf.sscanf_opt e.e_name "wal-%06d.log%!" (fun i -> i) <> None
    then
      match Wal.scan_file path with
      | Error m -> Error (e.e_name ^ ": " ^ m)
      | Ok scan -> (
        match scan.Wal.torn with
        | Some diag -> Error (Printf.sprintf "%s: torn (%s)" e.e_name diag)
        | None ->
          if scan.Wal.good_bytes <> e.e_size then
            Error (Printf.sprintf "%s: %d good bytes, expected %d" e.e_name
                     scan.Wal.good_bytes e.e_size)
          else Ok ())
    else if Filename.check_suffix e.e_name ".xseq" then
      match Xstorage.Store.open_file path with
      | st ->
        Xstorage.Store.close st;
        Ok ()
      | exception e2 -> Error (e.e_name ^ ": " ^ Printexc.to_string e2)
    else Error ("unexpected staged file " ^ e.e_name)

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
            write_file_sync
              (Filename.concat rv.rv_tmp manifest_file)
              (String.concat "\n" (List.map (fun e -> e.e_name) entries));
            fsync_path rv.rv_tmp;
            Xfault.Io.rename rv.rv_tmp (ready_dir rv.rv_dir);
            fsync_path rv.rv_dir;
            Ok ()
          with
          | Unix.Unix_error (e, _, _) ->
            Error ("commit: " ^ Unix.error_message e)
          | Sys_error m -> Error ("commit: " ^ m))
      end

  let is_data_file name =
    String.equal name "checkpoint"
    || Scanf.sscanf_opt name "wal-%06d.log%!" (fun i -> i) <> None
    || (String.length name > 5
        && String.equal (String.sub name 0 5) "base-"
        && Filename.check_suffix name ".xseq")

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
      let manifest = Filename.concat ready manifest_file in
      match
        let ic = open_in_bin manifest in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
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
        fsync_path dir;
        rm_rf ready;
        true
    end
end

(* --- open / recovery ---------------------------------------------------- *)

let list_wals = Wal.list_files

(* The next unused no-rotation snapshot serial: one past any left by a
   previous incarnation, so a name a checkpoint may still reference is
   never overwritten. *)
let scan_cut_seq dirname =
  Array.fold_left
    (fun acc name ->
      match Scanf.sscanf_opt name "base-%06d-%06d.xseq%!" (fun _ c -> c) with
      | Some c -> max acc (c + 1)
      | None -> acc)
    0
    (try Sys.readdir dirname with Sys_error _ -> [||])

(* Everything [open_] learns from the directory: shared with [reseed],
   which re-runs recovery in place after a snapshot install. *)
type loaded = {
  ld_view : view;
  ld_wal : Wal.writer;
  ld_wal_index : int;
  ld_next_id : int;
  ld_base_settled : bool;
  ld_recovery : recovery;
}

(* Whether a snapshot file is in the compressed container: its magic
   (already validated by the load that precedes this).  Opening it
   through {!Xstorage.Store} again would materialise its blobs. *)
let is_col2 path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      String.equal
        (really_input_string ic 8)
        (Xstorage.Store.format_name Xstorage.Store.Col2))

let load_dir ~sync_every ~config dirname =
  let ckp =
    match read_checkpoint (Filename.concat dirname "checkpoint") with
    | Ok c -> c
    | Error msg -> invalid_arg ("Xlog.open_: checkpoint: " ^ msg)
  in
  let base, ckp_wal_index, ckp_wal_offset, next_id0 =
    match ckp with
    | None -> (None, 0, String.length Wal.magic, 0)
    | Some c ->
      let base =
        if String.equal c.c_base "" then None
        else begin
          let path = Filename.concat dirname c.c_base in
          let index = Xseq.load path in
          if Xseq.doc_count index <> Array.length c.c_ids then
            invalid_arg "Xlog.open_: base snapshot disagrees with checkpoint";
          Some ({ index; ids = c.c_ids }, path)
        end
      in
      (base, c.c_wal_index, c.c_wal_offset, c.c_next_id)
  in
  let base_settled =
    match base with
    | None -> true
    | Some (seg, path) ->
      is_col2 path && Xseq.built_under seg.index config
  in
  let base = Option.map fst base in
  (* Replay the WAL suffix. *)
  let replayed = ref 0 in
  let torn = ref [] in
  let pending = ref [] in
  let npending = ref 0 in
  let tombs = ref Iset.empty in
  let next_id = ref next_id0 in
  let wals =
    List.filter (fun (i, _) -> i >= ckp_wal_index) (list_wals dirname)
  in
  List.iter
    (fun (i, path) ->
      let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
      if size < String.length Wal.magic then begin
        (* The magic itself was torn: recover to an empty log. *)
        torn := (Filename.basename path, "truncated magic") :: !torn;
        Unix.truncate path 0;
        (* Wal.create rewrites the magic on a zero-length file. *)
        Wal.close (Wal.create path)
      end
      else begin
        let offset =
          if i = ckp_wal_index then ckp_wal_offset else String.length Wal.magic
        in
        match Wal.scan_file ~offset path with
        | Error msg ->
          invalid_arg
            (Printf.sprintf "Xlog.open_: %s: %s" (Filename.basename path) msg)
        | Ok scan ->
          (match scan.Wal.torn with
          | Some diag ->
            torn := (Filename.basename path, diag) :: !torn;
            Unix.truncate path scan.Wal.good_bytes
          | None -> ());
          List.iter
            (fun op ->
              incr replayed;
              match op with
              | Wal.Insert (id, doc) ->
                pending := (id, doc) :: !pending;
                incr npending;
                if id >= !next_id then next_id := id + 1
              | Wal.Remove id -> tombs := Iset.add id !tombs)
            scan.Wal.ops
      end)
    wals;
  let wal_index =
    match List.rev wals with (i, _) :: _ -> i | [] -> ckp_wal_index
  in
  let wal = Wal.create ~sync_every (wal_file dirname wal_index) in
  {
    ld_view =
      {
        base;
        segs = [];
        pending = !pending;
        npending = !npending;
        tombs = !tombs;
        stamp = fresh_stamp ();
      };
    ld_wal = wal;
    ld_wal_index = wal_index;
    ld_next_id = !next_id;
    ld_base_settled = base_settled;
    ld_recovery =
      {
        replayed = !replayed;
        recovered_pending = !npending;
        torn = List.rev !torn;
      };
  }

let open_ ?(sync_every = 1) ?(memtable_limit = 256) ?(max_segments = 8)
    ?(domains = 1) ?pool ?(config = Xseq.default_config)
    ?(probe_interval = 1.0) dirname =
  let config = { config with Xseq.keep_documents = true } in
  (try Unix.mkdir dirname 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* Finish any snapshot install a crash interrupted before reading. *)
  ignore (Transfer.install_ready dirname : bool);
  let ld = load_dir ~sync_every ~config dirname in
  let t =
    {
      dirname;
      view = Atomic.make ld.ld_view;
      writer_m = Mutex.create ();
      wal = ld.ld_wal;
      wal_index = ld.ld_wal_index;
      next_id = ld.ld_next_id;
      compacting = false;
      bg = None;
      closed = false;
      cut_seq = scan_cut_seq dirname;
      base_settled = ld.ld_base_settled;
      retain_wal = (fun () -> None);
      sync_every;
      memtable_limit = max 1 memtable_limit;
      max_segments = max 1 max_segments;
      domains;
      pool;
      config;
      recovery_info = ld.ld_recovery;
      degraded = Atomic.make None;
      last_probe = Atomic.make 0.0;
      probe_interval = Stdlib.max 0.0 probe_interval;
      quarantined = Atomic.make false;
    }
  in
  (* A long replay should not leave queries scanning a huge memtable. *)
  if ld.ld_view.npending >= t.memtable_limit then
    locked t (fun () -> seal_locked t);
  t

(* Swap in a freshly staged snapshot without reopening the handle: the
   server keeps serving through the same [t].  The caller must have
   quiesced writers (a re-seeding follower has no local writers by
   definition).  On success the store's entire state — view, WAL writer,
   id watermark — is the staged snapshot's. *)
let reseed t =
  locked t (fun () ->
      check_open t;
      if t.compacting then Error "compaction in progress"
      else if not (Transfer.install_ready t.dirname) then
        Error "no staged snapshot to install"
      else begin
        Wal.abort t.wal;
        match load_dir ~sync_every:t.sync_every ~config:t.config t.dirname with
        | exception e ->
          let msg = "reseed: " ^ Printexc.to_string e in
          Atomic.set t.degraded (Some msg);
          Error msg
        | ld ->
          t.wal <- ld.ld_wal;
          t.wal_index <- ld.ld_wal_index;
          t.next_id <- ld.ld_next_id;
          t.cut_seq <- scan_cut_seq t.dirname;
          t.base_settled <- ld.ld_base_settled;
          Atomic.set t.view ld.ld_view;
          Atomic.set t.quarantined false;
          Atomic.set t.degraded None;
          if ld.ld_view.npending >= t.memtable_limit then seal_locked t;
          Ok ()
      end)

(* --- anti-entropy scrub -------------------------------------------------- *)

module Scrub = struct
  (* Re-walk every at-rest checksum — checkpoint header, snapshot file
     regions, WAL records — at a configurable rate.  Detection is the
     easy half; the value is in what happens next: a live store that
     fails a pass is quarantined (degraded state — mutations refuse,
     queries over the in-memory view keep working) until a repair
     callback, typically a snapshot re-fetch from the primary, clears
     it.  Everything here reads through {!Xfault.Io} where it matters,
     so scrub behaviour under injected faults is replayable too. *)

  type report = {
    files_scanned : int;
    bytes_scanned : int;
    errors : (string * string) list;  (** file, diagnosis *)
  }

  let rate_sleep ~rate_mb_s bytes =
    if rate_mb_s > 0. && bytes > 0 then
      Thread.delay (float_of_int bytes /. (rate_mb_s *. 1024. *. 1024.))

  (* [durable]: on a live store, the WAL tail past the durable offset of
     the active file is legitimately in flux — stop there.  Offline
     (no [durable]), a torn tail on the *highest* WAL file is what crash
     recovery truncates, not corruption; torn middles always count. *)
  let scrub_dir ?(rate_mb_s = 0.) ?durable dirname =
    let files = ref 0 and bytes = ref 0 and errors = ref [] in
    let fail name diag = errors := (name, diag) :: !errors in
    let scanned name n =
      incr files;
      bytes := !bytes + n;
      rate_sleep ~rate_mb_s n;
      ignore name
    in
    let file_size path =
      try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
    in
    let ckp_path = Filename.concat dirname "checkpoint" in
    let ckp =
      match read_checkpoint ckp_path with
      | Ok c ->
        if c <> None then scanned "checkpoint" (file_size ckp_path);
        c
      | Error m ->
        fail "checkpoint" m;
        None
    in
    (match ckp with
    | Some c when not (String.equal c.c_base "") -> (
      let path = Filename.concat dirname c.c_base in
      match Xstorage.Store.open_file path with
      | st ->
        Xstorage.Store.close st;
        scanned c.c_base (file_size path)
      | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        fail c.c_base "missing"
      | exception e -> fail c.c_base (Printexc.to_string e))
    | _ -> ());
    let ckp_index = match ckp with Some c -> c.c_wal_index | None -> 0 in
    (* Every listed WAL file, not just the recovery suffix: files below
       the checkpoint survive only while retention pins them for a live
       subscriber — and those are exactly the bytes still being shipped,
       so a flip there matters as much as one in the replay window. *)
    let wals = Wal.list_files dirname in
    let last_index =
      List.fold_left (fun acc (i, _) -> max acc i) ckp_index wals
    in
    List.iter
      (fun (i, path) ->
        let name = Filename.basename path in
        let limit =
          match durable with
          | Some (dfile, doff) when i = dfile -> Some doff
          | Some (dfile, _) when i > dfile -> Some 0
          | _ -> None
        in
        if limit = Some 0 then ()
        else
          match Wal.scan_file path with
          | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
            (* Pruned between listing and scanning: not corruption. *)
            ()
          | Error m -> fail name m
          | Ok scan -> (
            let upto = match limit with Some l -> l | None -> max_int in
            scanned name (min scan.Wal.good_bytes upto);
            match scan.Wal.torn with
            | None -> ()
            | Some diag -> (
              match limit with
              | Some l when scan.Wal.good_bytes >= l ->
                (* The tear sits past the durable cursor: in-flight
                   bytes, not damage. *)
                ()
              | Some _ -> fail name diag
              | None -> (
                if i <> last_index then fail name diag
                else
                  (* Newest file, no live durable cursor: normally a
                     recoverable torn tail — except behind the
                     checkpoint's covered offset, where the checkpoint
                     itself proves the bytes were once durable. *)
                  match ckp with
                  | Some c
                    when i = c.c_wal_index
                         && scan.Wal.good_bytes < c.c_wal_offset ->
                    fail name diag
                  | _ -> ()))))
      wals;
    { files_scanned = !files; bytes_scanned = !bytes; errors = List.rev !errors }

  (* Scrub a live store.  A compaction finishing mid-pass replaces the
     files under us (stale checkpoint, vanished snapshots): detect it by
     re-reading the checkpoint and rerun instead of crying wolf. *)
  let scrub_store ?rate_mb_s t =
    let ckp_bytes () =
      let path = Filename.concat t.dirname "checkpoint" in
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error _ -> ""
    in
    let rec run attempts =
      let before = ckp_bytes () in
      let d = wal_durable_position t in
      let r = scrub_dir ?rate_mb_s ~durable:(d.Wal.file, d.Wal.off) t.dirname in
      if r.errors = [] then r
      else if not (String.equal before (ckp_bytes ())) && attempts > 0 then
        run (attempts - 1)
      else r
    in
    let r = run 3 in
    (match r.errors with
    | [] ->
      if Atomic.get t.quarantined then begin
        Atomic.set t.quarantined false;
        Atomic.set t.degraded None
      end
    | (name, diag) :: _ ->
      Atomic.set t.quarantined true;
      Atomic.set t.degraded
        (Some (Printf.sprintf "scrub: %s: %s" name diag)));
    r

  type stats = {
    passes : int;
    files : int;
    bytes : int;
    errors_found : int;
    repairs : int;
    quarantined : bool;
    last_error : string;  (** "" if the latest pass was clean *)
  }

  type scrubber = {
    sc_store : t;
    sc_interval : float;
    sc_rate_mb_s : float;
    sc_log : string -> unit;
    sc_passes : int Atomic.t;
    sc_files : int Atomic.t;
    sc_bytes : int Atomic.t;
    sc_errors : int Atomic.t;
    sc_repairs : int Atomic.t;
    sc_quarantined : bool Atomic.t;
    sc_last : string Atomic.t;
    sc_stop : bool Atomic.t;
    mutable sc_repair : (string -> unit) option;
    mutable sc_thread : Thread.t option;
  }

  let create ?(interval = 60.) ?(rate_mb_s = 32.) ?(log = fun _ -> ()) store =
    {
      sc_store = store;
      sc_interval = Stdlib.max 0.05 interval;
      sc_rate_mb_s = rate_mb_s;
      sc_log = log;
      sc_passes = Atomic.make 0;
      sc_files = Atomic.make 0;
      sc_bytes = Atomic.make 0;
      sc_errors = Atomic.make 0;
      sc_repairs = Atomic.make 0;
      sc_quarantined = Atomic.make false;
      sc_last = Atomic.make "";
      sc_stop = Atomic.make false;
      sc_repair = None;
      sc_thread = None;
    }

  let set_repair sc f = sc.sc_repair <- Some f

  let run_once sc =
    let r = scrub_store ~rate_mb_s:sc.sc_rate_mb_s sc.sc_store in
    Atomic.incr sc.sc_passes;
    Atomic.set sc.sc_files (Atomic.get sc.sc_files + r.files_scanned);
    Atomic.set sc.sc_bytes (Atomic.get sc.sc_bytes + r.bytes_scanned);
    (match r.errors with
    | [] ->
      Atomic.set sc.sc_last "";
      if Atomic.get sc.sc_quarantined then begin
        (* The damage a previous pass quarantined is gone — the repair
           (snapshot re-fetch, operator copy) took. *)
        Atomic.set sc.sc_quarantined false;
        Atomic.incr sc.sc_repairs;
        Atomic.set (sc.sc_store.degraded) None;
        sc.sc_log "scrub: clean pass after quarantine, store repaired"
      end
    | (name, diag) :: _ as errs ->
      Atomic.set sc.sc_errors (Atomic.get sc.sc_errors + List.length errs);
      Atomic.set sc.sc_last (Printf.sprintf "%s: %s" name diag);
      Atomic.set sc.sc_quarantined true;
      sc.sc_log
        (Printf.sprintf "scrub: QUARANTINE %s: %s (%d error%s)" name diag
           (List.length errs)
           (if List.length errs = 1 then "" else "s"));
      match sc.sc_repair with
      | Some repair -> repair (name ^ ": " ^ diag)
      | None -> ());
    r

  let start sc =
    if sc.sc_thread <> None then invalid_arg "Xlog.Scrub.start: already running";
    sc.sc_thread <-
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get sc.sc_stop) do
               (try ignore (run_once sc : report)
                with e ->
                  sc.sc_log ("scrub: pass failed: " ^ Printexc.to_string e));
               (* Interruptible sleep: check the stop flag every 50ms. *)
               let slept = ref 0. in
               while
                 (not (Atomic.get sc.sc_stop)) && !slept < sc.sc_interval
               do
                 Thread.delay 0.05;
                 slept := !slept +. 0.05
               done
             done)
           ())

  let stop sc =
    Atomic.set sc.sc_stop true;
    (match sc.sc_thread with Some th -> Thread.join th | None -> ());
    sc.sc_thread <- None

  let stats sc =
    {
      passes = Atomic.get sc.sc_passes;
      files = Atomic.get sc.sc_files;
      bytes = Atomic.get sc.sc_bytes;
      errors_found = Atomic.get sc.sc_errors;
      repairs = Atomic.get sc.sc_repairs;
      quarantined = Atomic.get sc.sc_quarantined;
      last_error = Atomic.get sc.sc_last;
    }
end
