(* The store core: views, queries, mutations, seal, compaction,
   open/recovery and reseed.  See xlog.mli for the design contract.
   {!Layout} names the directory's files; {!Transfer} and {!Scrub} are
   beside this module, and xlog.ml puts the three together. *)

module T = Xmlcore.Xml_tree
module Pattern = Xquery.Pattern
module Iset = Set.Make (Int)

let wal_file dir i = Filename.concat dir (Layout.wal i)

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

let locked t f = Mutex.protect t.writer_m f

(* --- segments ----------------------------------------------------------- *)

let build_seg t ids docs =
  let index =
    Xseq.build ~domains:t.domains ?pool:t.pool ~config:t.config docs
  in
  { index; ids }

let fresh_stamp () = Xseq.next_generation ()
let sealed v = match v.base with Some b -> b :: v.segs | None -> v.segs

(* --- queries ------------------------------------------------------------ *)

let pending_hits v pattern =
  List.rev
    (List.filter_map
       (fun (id, doc) ->
         if (not (Iset.mem id v.tombs)) && Xquery.Embedding.matches pattern doc
         then Some id
         else None)
       v.pending)

(* The per-part answer: each part names a sealed segment and its local
   hits, mapped to store ids minus tombstones; the memtable's hits
   follow.  [query] and [run_prepared] differ only in how a part finds
   its local hits. *)
let answer v pattern parts hits =
  let sealed_hits =
    List.concat_map
      (fun part ->
        let seg, locals = hits part in
        List.filter_map
          (fun local ->
            let id = seg.ids.(local) in
            if Iset.mem id v.tombs then None else Some id)
          locals)
      parts
  in
  sealed_hits @ pending_hits v pattern

(* [Xseq.query] per segment keeps its [Too_many] scan fallback. *)
let query ?stats t pattern =
  let v = Atomic.get t.view in
  answer v pattern (sealed v) (fun seg ->
      (seg, Xseq.query ?stats seg.index pattern))

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
  answer v p.p_pattern p.p_plans (fun (seg, plan) ->
      (seg, Xseq.run_prepared ?stats seg.index plan))

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

(* writer_m held: the end of the log, and its fsynced prefix. *)
let end_locked t = { Wal.file = t.wal_index; off = Wal.offset t.wal }
let durable_locked t =
  { Wal.file = t.wal_index; off = Wal.durable_offset t.wal }

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
  try
    t.wal <- Wal.create ~sync_every:t.sync_every (wal_file t.dirname target)
  with Unix.Unix_error (e, fn, _) ->
    degrade_and_raise t ~what:"wal rotate (create)" e fn

let rotate_locked t = rotate_to_locked t (t.wal_index + 1)

type snapshot = {
  s_view : view;
  s_wal_index : int;  (** replay starts in this WAL file... *)
  s_wal_offset : int;  (** ...at this offset (just past the magic after
                           a rotation; mid-file for a no-rotation cut) *)
  s_base_name : string;  (** snapshot file to write if any doc is live *)
  s_next_id : int;
}

(* writer_m held, the WAL just cut: rotated to a fresh file, or synced
   mid-file.  A no-rotation cut cannot name its base by the WAL index
   alone; the per-open serial keeps the names unique, so a base a
   checkpoint may still reference is never overwritten. *)
let snapshot_locked ~rotate t =
  let s_base_name =
    if rotate then Layout.base t.wal_index
    else begin
      let name = Layout.cut_base t.wal_index t.cut_seq in
      t.cut_seq <- t.cut_seq + 1;
      name
    end
  in
  {
    s_view = Atomic.get t.view;
    s_wal_index = t.wal_index;
    s_wal_offset =
      (if rotate then String.length Wal.magic else Wal.offset t.wal);
    s_base_name;
    s_next_id = t.next_id;
  }

(* Must be called with [writer_m] held.  Seals the memtable and cuts the
   WAL — by rotating to a fresh file (the primary shape: every record in
   files >= [s_wal_index] post-dates the snapshot), or, with
   [rotate = false] (the replica shape: the file sequence must mirror the
   primary's byte-for-byte, so a follower may never invent a rotation),
   by syncing and recording the mid-file offset — then hands the cut to
   the (possibly backgrounded) rebuild. *)
let compact_cut_locked ~rotate t =
  if t.compacting then None
  else begin
    t.compacting <- true;
    match
      seal_locked t;
      if rotate then rotate_locked t else wal_sync t
    with
    | () -> Some (snapshot_locked ~rotate t)
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
        match Layout.classify name with
        | Layout.Wal i -> i < keep_wal_from
        | Layout.Base _ -> not (String.equal name keep_base)
        | Layout.Checkpoint | Layout.Other -> false
      in
      if doomed then
        try Sys.remove (Filename.concat t.dirname name) with Sys_error _ -> ())
    (Sys.readdir t.dirname)

(* Bases are compressed xseqcol2 snapshots (records and designator names
   LZ-coded).  A base of an older layout or container, which earlier
   builds wrote, loads as an upgraded index that is not [Xseq.built_under]
   the store's configuration, so the next compaction rewrites it (see
   [base_settled]). *)
let save_base t name seg =
  let path = Filename.concat t.dirname name in
  Xseq.save ~compress:true seg.index path;
  Layout.fsync_path path

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

(* The compaction plan, a function of the frozen view alone: the live
   ids in id order and the records a base over them is built from.  It
   writes nothing (a loaded base decodes its records from its file). *)
let plan_base v =
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
  (Array.map fst live, Array.map snd live)

(* The one place a base is committed: build it over [plan ()], save it
   (xseqcol2 + fsync), write the checkpoint that names it, [install]
   it (no base when nothing is live), then prune.  The checkpoint
   rename is the commit point: WALs before the cut and older bases are
   garbage after it, and the view matches the disk before a prune can
   fail.  A disk fault, the plan's reads of a loaded base included,
   degrades the store with [what] as the reason, once [finally] has
   run. *)
let commit_base t ~what ?(finally = ignore) snap plan install =
  disk_guard t ~what (fun () ->
      Fun.protect ~finally (fun () ->
          let ids, docs = plan () in
          let base =
            if Array.length ids = 0 then None else Some (build_seg t ids docs)
          in
          let name = if Option.is_none base then "" else snap.s_base_name in
          Option.iter (save_base t name) base;
          Layout.write_checkpoint t.dirname
            {
              c_wal_index = snap.s_wal_index;
              c_wal_offset = snap.s_wal_offset;
              c_next_id = snap.s_next_id;
              c_base = name;
              c_ids = ids;
            };
          install base;
          prune_files t snap.s_wal_index name))

let compact_finish t snap =
  let v = snap.s_view in
  commit_base t ~what:Layout.checkpoint
    ~finally:(fun () -> locked t (fun () -> t.compacting <- false))
    snap
    (fun () -> plan_base v)
    (fun base ->
      (* Keep whatever sealed or tombstoned after the cut. *)
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

let spawn_compaction t snap =
  t.bg <-
    Some
      (Thread.create
         (fun () ->
           try compact_finish t snap with
           | Xfault.Crashed -> ()
           | Degraded reason ->
             Printf.eprintf
               "xlog: store degraded during background compaction: %s\n%!"
               reason
           | e ->
             Printf.eprintf "xlog: background compaction failed: %s\n%!"
               (Printexc.to_string e))
         ())

(* writer_m held.  A full memtable seals; a seal that leaves more than
   [max_segments] deltas cuts a background compaction. *)
let seal_if_full_locked ~rotate t =
  if (Atomic.get t.view).npending >= t.memtable_limit then begin
    seal_locked t;
    if List.length (Atomic.get t.view).segs > t.max_segments && not t.compacting
    then Option.iter (spawn_compaction t) (compact_cut_locked ~rotate t)
  end

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
    if wait then compact_finish t snap;
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

(* writer_m held. *)
let memtable_add t id doc =
  let v = Atomic.get t.view in
  Atomic.set t.view
    { v with pending = (id, doc) :: v.pending; npending = v.npending + 1 }

let insert t doc =
  maybe_probe t;
  locked t (fun () ->
      check_writable t;
      let id = t.next_id in
      wal_append t (Wal.Insert (id, doc));
      t.next_id <- id + 1;
      memtable_add t id doc;
      seal_if_full_locked ~rotate:true t;
      id)

let live_locked t v id =
  (* Is [id] a live document of [v]?  (writer_m held: next_id is stable.) *)
  let in_seg seg =
    let n = Array.length seg.ids in
    let i = Xutil.Binsearch.lower_bound seg.ids ~len:n id in
    i < n && seg.ids.(i) = id
  in
  (not (Iset.mem id v.tombs))
  && (id >= t.next_id - v.npending || List.exists in_seg (sealed v))

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
        rotate_locked t;
        commit_base t ~what:"seed"
          { (snapshot_locked ~rotate:true t) with s_next_id = n }
          (fun () -> (ids, docs))
          (fun base ->
            t.next_id <- n;
            t.base_settled <- true;
            Atomic.set t.view
              {
                base;
                segs = [];
                pending = [];
                npending = 0;
                tombs = Iset.empty;
                stamp = fresh_stamp ();
              })
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
      let cur = end_locked t in
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
                  memtable_add t id doc
                | Wal.Remove id ->
                  let v = Atomic.get t.view in
                  Atomic.set t.view { v with tombs = Iset.add id v.tombs })
              ops;
            (* Replicas checkpoint without rotating: the file sequence
               must keep mirroring the primary's. *)
            seal_if_full_locked ~rotate:false t
          end;
          if next.Wal.file > t.wal_index then begin
            if next.Wal.off <> String.length Wal.magic then
              Error
                (Printf.sprintf "rotation to mid-file position %s"
                   (Wal.position_to_string next))
            else begin
              rotate_to_locked t next.Wal.file;
              Ok (durable_locked t)
            end
          end
          else if Wal.position_compare next (end_locked t) <> 0 then
            Error
              (Printf.sprintf "batch advertised %s but the log ends at %s"
                 (Wal.position_to_string next)
                 (Wal.position_to_string (end_locked t)))
          else begin
            wal_sync t;
            Ok (durable_locked t)
          end
      end)

let sync t =
  locked t (fun () ->
      check_writable t;
      wal_sync t)

(* Waits for any background compaction. *)
let join_bg t =
  let bg = locked t (fun () ->
      let bg = t.bg in
      t.bg <- None;
      bg)
  in
  Option.iter Thread.join bg

let close t =
  join_bg t;
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
  join_bg t;
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

let wal_position t = locked t (fun () -> end_locked t)
let wal_durable_position t = locked t (fun () -> durable_locked t)

let set_wal_retention t f = locked t (fun () -> t.retain_wal <- f)
let dir t = t.dirname
let recovery t = t.recovery_info

(* --- open / recovery ---------------------------------------------------- *)

(* The next unused no-rotation snapshot serial: one past any left by a
   previous incarnation, so a name a checkpoint may still reference is
   never overwritten. *)
let scan_cut_seq dirname =
  Array.fold_left
    (fun acc name ->
      match Layout.classify name with
      | Layout.Base (Some c) -> max acc (c + 1)
      | _ -> acc)
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

let load_dir ~sync_every ~config dirname =
  let ckp =
    let path = Filename.concat dirname Layout.checkpoint in
    match Layout.read_checkpoint path with
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
          Some { index; ids = c.c_ids }
        end
      in
      (base, c.c_wal_index, c.c_wal_offset, c.c_next_id)
  in
  let base_settled =
    match base with
    | None -> true
    | Some seg -> Xseq.built_under seg.index config
  in
  (* Replay the WAL suffix. *)
  let replayed = ref 0 in
  let torn = ref [] in
  let pending = ref [] in
  let npending = ref 0 in
  let tombs = ref Iset.empty in
  let next_id = ref next_id0 in
  let wals =
    List.filter (fun (i, _) -> i >= ckp_wal_index) (Wal.list_files dirname)
  in
  List.iter
    (fun (i, path) ->
      let size =
        try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
      in
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
