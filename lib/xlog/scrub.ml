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
  let scanned n =
    incr files;
    bytes := !bytes + n;
    rate_sleep ~rate_mb_s n
  in
  let file_size path =
    try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
  in
  let ckp_path = Filename.concat dirname Layout.checkpoint in
  let ckp =
    match Layout.read_checkpoint ckp_path with
    | Ok c ->
      if c <> None then scanned (file_size ckp_path);
      c
    | Error m ->
      fail Layout.checkpoint m;
      None
  in
  (match ckp with
  | Some c when not (String.equal c.c_base "") -> (
    let path = Filename.concat dirname c.c_base in
    match Xstorage.Store.open_file path with
    | st ->
      Xstorage.Store.close st;
      scanned (file_size path)
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
          scanned (min scan.Wal.good_bytes upto);
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
let scrub_store ?rate_mb_s (t : Core.t) =
  let ckp_bytes () =
    try Layout.read_file (Filename.concat t.dirname Layout.checkpoint)
    with Sys_error _ -> ""
  in
  let rec run attempts =
    let before = ckp_bytes () in
    let d = Core.wal_durable_position t in
    let r =
      scrub_dir ?rate_mb_s ~durable:(d.Wal.file, d.Wal.off) t.dirname
    in
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
  sc_store : Core.t;
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
