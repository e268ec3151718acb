(* Self-healing cluster, offline half: the snapshot transfer codec
   (manifest -> chunked stream -> staged install) survives chunking at
   awkward sizes, abandonment mid-stage and kill-9-shaped restarts; a
   committed install is idempotent and equals the primary at the cut;
   [Xlog.reseed] swaps a live handle onto the installed snapshot; and
   the anti-entropy scrubber detects every seeded bit flip, quarantines
   the store (mutations refused, reads still served) and counts the
   repair when a clean pass follows.  Violations print the (seed, file,
   offset) triple so a failure replays. *)

module T = Xmlcore.Xml_tree
module Wal = Xlog.Wal
module Transfer = Xlog.Transfer
module Scrub = Xlog.Scrub

let e = T.elt
let v = T.text

(* --- scratch directories --------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_seq = ref 0

let with_dir f =
  incr dir_seq;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "selfheal-test-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- shared helpers --------------------------------------------------------- *)

let doc i =
  e "P"
    [
      e "L" [ v (string_of_int i) ];
      (if i mod 3 = 0 then e "S" [] else e "B" [ v "y" ]);
    ]

let xpaths = [ "/P/L"; "//S"; "/P//B"; "//Q" ]

let check_same_answers what a b =
  List.iter
    (fun xp ->
      let ga = Xlog.query_xpath a xp and gb = Xlog.query_xpath b xp in
      if ga <> gb then
        Alcotest.failf "%s: %s diverges ([%s] vs [%s])" what xp
          (String.concat ";" (List.map string_of_int ga))
          (String.concat ";" (List.map string_of_int gb)))
    xpaths;
  Alcotest.(check int) (what ^ ": doc_count") (Xlog.doc_count a)
    (Xlog.doc_count b);
  Alcotest.(check int) (what ^ ": next_id") (Xlog.next_id a) (Xlog.next_id b)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_wal_mirror what primary_dir follower_dir =
  let p = Wal.list_files primary_dir and f = Wal.list_files follower_dir in
  Alcotest.(check (list int))
    (what ^ ": same WAL file sequence")
    (List.map fst p) (List.map fst f);
  List.iter2
    (fun (i, pp) (_, fp) ->
      if not (String.equal (read_whole pp) (read_whole fp)) then
        Alcotest.failf "%s: wal-%06d.log diverges" what i)
    p f

(* Drain the primary's WAL into the follower from the follower's own
   log end — what the replication thread does after a reseed. *)
let catch_up ~src dst =
  let rec go guard =
    if guard = 0 then Alcotest.fail "catch_up: no progress";
    let pos = Xlog.wal_position dst in
    match Wal.tail ~dir:src ~max_bytes:4096 pos with
    | Error err ->
      Alcotest.failf "tail %s: %s"
        (Wal.position_to_string pos)
        (Wal.tail_error_to_string err)
    | Ok b ->
      if Wal.position_compare b.Wal.b_next pos = 0 then ()
      else begin
        (match
           Xlog.replica_apply dst ~from:pos ~next:b.Wal.b_next b.Wal.b_records
         with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "replica_apply: %s" m);
        go (guard - 1)
      end
  in
  go 10_000

(* A primary with a checkpoint (compact) plus a WAL suffix past the
   cut, so the transfer carries all three stream shapes: checkpoint,
   base snapshot, WAL prefix. *)
let build_primary dir =
  let log = Xlog.open_ ~sync_every:1 ~memtable_limit:8 dir in
  for i = 0 to 24 do
    ignore (Xlog.insert log (doc i) : int)
  done;
  ignore (Xlog.remove log 3 : bool);
  ignore (Xlog.compact ~wait:true log : bool);
  for i = 25 to 31 do
    ignore (Xlog.insert log (doc i) : int)
  done;
  Xlog.sync log;
  log

(* Stream [mf] from [src] into [dst]'s staging dir in [chunk]-byte
   pieces, starting at the receiver's resume cursor. *)
let stream ~chunk src mf recv =
  let rec go () =
    let off = Transfer.recv_got recv in
    if off < mf.Transfer.x_total then begin
      (match Transfer.read_slice src mf ~off ~len:chunk with
      | Error m -> Alcotest.failf "read_slice at %d: %s" off m
      | Ok piece -> (
        match Transfer.recv_write recv piece with
        | Ok () -> ()
        | Error m -> Alcotest.failf "recv_write at %d: %s" off m));
      go ()
    end
  in
  go ()

(* --- snapshot transfer ------------------------------------------------------ *)

(* The full pipeline at several chunk sizes, including one that never
   aligns with file boundaries: stage, commit, install, open — the
   follower equals the primary at the cut, then converges byte-for-byte
   once it tails the suffix. *)
let test_transfer_roundtrip () =
  List.iter
    (fun chunk ->
      with_dir (fun pdir ->
          with_dir (fun fdir ->
              let primary = build_primary pdir in
              let mf =
                match Transfer.manifest_of_dir pdir with
                | Ok m -> m
                | Error m -> Alcotest.failf "manifest: %s" m
              in
              Alcotest.(check bool) "token is the checkpoint checksum" false
                (String.equal mf.Transfer.x_token "empty");
              let recv = Transfer.recv_create fdir in
              stream ~chunk pdir mf recv;
              (match Transfer.recv_finish recv with
              | Ok () -> ()
              | Error m -> Alcotest.failf "recv_finish: %s" m);
              Alcotest.(check bool) "install commits" true
                (Transfer.install_ready fdir);
              Alcotest.(check bool) "second install is a no-op" false
                (Transfer.install_ready fdir);
              let follower = Xlog.open_ ~sync_every:1 ~memtable_limit:8 fdir in
              (* At the cut: behind the primary by the WAL suffix. *)
              Alcotest.(check bool) "follower is at the cut" true
                (Xlog.next_id follower < Xlog.next_id primary);
              catch_up ~src:pdir follower;
              check_same_answers
                (Printf.sprintf "chunk %d" chunk)
                primary follower;
              check_wal_mirror
                (Printf.sprintf "chunk %d" chunk)
                pdir fdir;
              Xlog.close follower;
              Xlog.close primary)))
    [ 777; 64 * 1024; max_int ]

let manifest dir =
  match Transfer.manifest_of_dir dir with
  | Ok m -> m
  | Error m -> Alcotest.failf "manifest: %s" m

(* Stream a primary's snapshot into [fdir] and commit it. *)
let transfer ~src fdir =
  let recv = Transfer.recv_create fdir in
  stream ~chunk:4096 src (manifest src) recv;
  match Transfer.recv_finish recv with
  | Ok () -> ()
  | Error m -> Alcotest.failf "recv_finish: %s" m

(* A seed rotates the WAL and prunes the file it started in, so a fresh
   follower's cursor (the start of the log) is already pruned: it must
   re-seed through a snapshot transfer, then answer id for id and tail
   on from there. *)
let test_follower_of_seeded_primary () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let primary = Xlog.open_ ~sync_every:1 pdir in
          ignore (Xlog.seed primary (Array.init 40 doc) : int array);
          let follower = Xlog.open_ ~sync_every:1 ~memtable_limit:8 fdir in
          (match Wal.tail ~dir:pdir (Xlog.wal_position follower) with
          | Error (Wal.Position_pruned _) -> ()
          | Ok _ -> Alcotest.fail "a fresh follower tailed across the seed"
          | Error (Wal.Tail_error m) -> Alcotest.failf "untyped tail error: %s" m);
          transfer ~src:pdir fdir;
          (match Xlog.reseed follower with
          | Ok () -> ()
          | Error m -> Alcotest.failf "reseed: %s" m);
          check_same_answers "reseeded follower" primary follower;
          for i = 40 to 49 do
            ignore (Xlog.insert primary (doc i) : int)
          done;
          ignore (Xlog.remove primary 5 : bool);
          catch_up ~src:pdir follower;
          check_same_answers "tailing follower" primary follower;
          check_wal_mirror "tailing follower" pdir fdir;
          Xlog.close follower;
          Xlog.close primary))

(* A directory written before bases were compressed: its xseqcol1 base
   opens, answers id for id, passes scrub and transfer verification, and
   an explicit compaction rewrites it as xseqcol2. *)
let test_legacy_col1_base () =
  with_dir (fun dir ->
      with_dir (fun fdir ->
          let log = build_primary dir in
          let answers log = List.map (Xlog.query_xpath log) xpaths in
          let want = answers log in
          let next = Xlog.next_id log in
          Xlog.close log;
          let base_format path =
            let st = Xstorage.Store.open_file path in
            Fun.protect
              ~finally:(fun () -> Xstorage.Store.close st)
              (fun () -> Xstorage.Store.file_format st)
          in
          let bases () =
            List.filter
              (fun n -> Filename.check_suffix n ".xseq")
              (Array.to_list (Sys.readdir dir))
          in
          (match bases () with
          | [ b ] ->
            let path = Filename.concat dir b in
            Containers.(save Col1) (Xseq.load path) path;
            Alcotest.(check bool) "legacy base in place" true
              (base_format path = Xstorage.Store.Col1)
          | l -> Alcotest.failf "%d base files" (List.length l));
          let log = Xlog.open_ ~sync_every:1 dir in
          Alcotest.(check bool) "answers id for id" true (answers log = want);
          Alcotest.(check int) "next id" next (Xlog.next_id log);
          let r = Scrub.scrub_dir dir in
          Alcotest.(check int) "scrub finds nothing" 0 (List.length r.Scrub.errors);
          transfer ~src:dir fdir;
          Alcotest.(check bool) "compact" true (Xlog.compact ~wait:true log);
          (match bases () with
          | [ b ] ->
            Alcotest.(check bool) "rewritten as xseqcol2" true
              (base_format (Filename.concat dir b) = Xstorage.Store.Col2)
          | l -> Alcotest.failf "%d base files after compaction" (List.length l));
          Alcotest.(check bool) "answers after the rewrite" true (answers log = want);
          Xlog.close log))

(* Kill -9 shapes: an abandoned staging dir is invisible to [open_]; a
   committed [xfer.ready] is installed by the next [open_] without any
   explicit install call. *)
let test_transfer_crash_safe () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let primary = build_primary pdir in
          let mf =
            match Transfer.manifest_of_dir pdir with
            | Ok m -> m
            | Error m -> Alcotest.failf "manifest: %s" m
          in
          (* Crash mid-stage: half the stream lands, then the process
             dies (we just stop calling).  The store opens empty. *)
          let recv = Transfer.recv_create fdir in
          (match
             Transfer.read_slice pdir mf ~off:0 ~len:(mf.Transfer.x_total / 2)
           with
          | Ok piece -> (
            match Transfer.recv_write recv piece with
            | Ok () -> ()
            | Error m -> Alcotest.failf "recv_write: %s" m)
          | Error m -> Alcotest.failf "read_slice: %s" m);
          let ghost = Xlog.open_ fdir in
          Alcotest.(check int) "abandoned stage leaves an empty store" 0
            (Xlog.doc_count ghost);
          Xlog.close ghost;
          (* Restart the transfer from scratch (a new receiver discards
             the stale staging dir), commit, but crash before the
             install: [open_] completes it. *)
          let recv = Transfer.recv_create fdir in
          stream ~chunk:8192 pdir mf recv;
          (match Transfer.recv_finish recv with
          | Ok () -> ()
          | Error m -> Alcotest.failf "recv_finish: %s" m);
          Alcotest.(check bool) "xfer.ready is committed" true
            (Sys.file_exists (Filename.concat fdir "xfer.ready"));
          let follower = Xlog.open_ ~sync_every:1 fdir in
          Alcotest.(check bool) "open installed the committed snapshot" true
            (Xlog.doc_count follower > 0);
          catch_up ~src:pdir follower;
          check_same_answers "post-crash install" primary follower;
          Xlog.close follower;
          Xlog.close primary))

(* A corrupted stream must be refused at commit time, never installed:
   flip one bit mid-stream and recv_finish fails. *)
let test_transfer_rejects_corruption () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let primary = build_primary pdir in
          let mf =
            match Transfer.manifest_of_dir pdir with
            | Ok m -> m
            | Error m -> Alcotest.failf "manifest: %s" m
          in
          let whole =
            match Transfer.read_slice pdir mf ~off:0 ~len:mf.Transfer.x_total with
            | Ok s -> s
            | Error m -> Alcotest.failf "read_slice: %s" m
          in
          (* Flip a bit well past the header, inside file payload. *)
          let bytes = Bytes.of_string whole in
          let at = String.length mf.Transfer.x_header + (Bytes.length bytes / 2) in
          let at = min at (Bytes.length bytes - 1) in
          Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0x10));
          let recv = Transfer.recv_create fdir in
          (match Transfer.recv_write recv (Bytes.to_string bytes) with
          | Ok () -> (
            match Transfer.recv_finish recv with
            | Ok () -> Alcotest.failf "corrupt stream committed (flip at %d)" at
            | Error _ -> ())
          | Error _ -> (* refused even earlier: also fine *) ());
          Alcotest.(check bool) "nothing was committed" false
            (Sys.file_exists (Filename.concat fdir "xfer.ready"));
          let ghost = Xlog.open_ fdir in
          Alcotest.(check int) "store is still empty" 0 (Xlog.doc_count ghost);
          Xlog.close ghost;
          Xlog.close primary))

(* [Xlog.reseed]: the live-handle install a running follower uses.  The
   handle keeps serving, lands on the snapshot cut, and tails the
   suffix to convergence. *)
let test_reseed_live_handle () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let primary = build_primary pdir in
          let follower = Xlog.open_ ~sync_every:1 ~memtable_limit:8 fdir in
          (* Nothing staged yet: reseed must refuse, not wipe. *)
          (match Xlog.reseed follower with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "reseed with nothing staged succeeded");
          let mf =
            match Transfer.manifest_of_dir pdir with
            | Ok m -> m
            | Error m -> Alcotest.failf "manifest: %s" m
          in
          let recv = Transfer.recv_create fdir in
          stream ~chunk:4096 pdir mf recv;
          (match Transfer.recv_finish recv with
          | Ok () -> ()
          | Error m -> Alcotest.failf "recv_finish: %s" m);
          (match Xlog.reseed follower with
          | Ok () -> ()
          | Error m -> Alcotest.failf "reseed: %s" m);
          Alcotest.(check bool) "handle landed on the cut" true
            (Xlog.doc_count follower > 0);
          catch_up ~src:pdir follower;
          check_same_answers "after live reseed" primary follower;
          check_wal_mirror "after live reseed" pdir fdir;
          Xlog.close follower;
          Xlog.close primary))

(* An empty primary (no checkpoint yet) answers token "empty" and an
   entry-less stream; installing it converges an empty follower. *)
let test_transfer_empty_primary () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let primary = Xlog.open_ pdir in
          let mf =
            match Transfer.manifest_of_dir pdir with
            | Ok m -> m
            | Error m -> Alcotest.failf "manifest: %s" m
          in
          Alcotest.(check string) "empty token" "empty" mf.Transfer.x_token;
          let recv = Transfer.recv_create fdir in
          stream ~chunk:4096 pdir mf recv;
          (match Transfer.recv_finish recv with
          | Ok () -> ()
          | Error m -> Alcotest.failf "recv_finish: %s" m);
          ignore (Transfer.install_ready fdir : bool);
          let follower = Xlog.open_ fdir in
          Alcotest.(check int) "both empty" 0 (Xlog.doc_count follower);
          catch_up ~src:pdir follower;
          check_same_answers "empty primary" primary follower;
          Xlog.close follower;
          Xlog.close primary))

(* --- anti-entropy scrub ----------------------------------------------------- *)

(* Flip bit [bit] of byte [off] in [path]; returns the undo closure. *)
let flip_bit path ~off ~bit =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1 : int);
      let orig = Bytes.get b 0 in
      Bytes.set b 0 (Char.chr (Char.code orig lxor (1 lsl bit)));
      ignore (Unix.lseek fd off Unix.SEEK_SET : int);
      ignore (Unix.write fd b 0 1 : int);
      fun () ->
        let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            ignore (Unix.lseek fd off Unix.SEEK_SET : int);
            let b = Bytes.make 1 orig in
            ignore (Unix.write fd b 0 1 : int)))

let file_size path = (Unix.stat path).Unix.st_size

(* Every file the scrubber covers in [dir]: checkpoint, base snapshots,
   WAL logs. *)
let scrubbable_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         f = "checkpoint"
         || Filename.check_suffix f ".xseq"
         || (String.length f > 4 && String.sub f 0 4 = "wal-"))
  |> List.sort compare

(* Seeded torture: for each seed, flip one random bit in one random
   scrubbable file; the offline scrub must name that file, and the
   restored store must scrub clean again.  The fsync frontier covers
   the newest WAL file, so flips there are errors too — 100% detection.
   A miss prints the (seed, file, offset, bit) tuple for replay. *)
let test_scrub_detects_flips () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 ~memtable_limit:8 dir in
      (* Keep every WAL file so the corpus has pruned-era files too. *)
      Xlog.set_wal_retention log (fun () -> Some 0);
      for i = 0 to 24 do
        ignore (Xlog.insert log (doc i) : int)
      done;
      ignore (Xlog.compact ~wait:true log : bool);
      for i = 25 to 34 do
        ignore (Xlog.insert log (doc i) : int)
      done;
      Xlog.sync log;
      let durable = Xlog.wal_durable_position log in
      Xlog.close log;
      let files = scrubbable_files dir in
      Alcotest.(check bool) "corpus has checkpoint+base+wals" true
        (List.length files >= 4);
      let durable = (durable.Wal.file, durable.Wal.off) in
      (match Scrub.scrub_dir ~durable dir with
      | { Scrub.errors = []; _ } -> ()
      | { Scrub.errors = (f, m) :: _; _ } ->
        Alcotest.failf "pristine store scrubs dirty: %s: %s" f m);
      List.iter
        (fun seed ->
          let st = Random.State.make [| seed; 0x5cab |] in
          let name = List.nth files (Random.State.int st (List.length files)) in
          let path = Filename.concat dir name in
          let size = file_size path in
          (* Skip degenerate empty files (none expected). *)
          if size > 0 then begin
            let off = Random.State.int st size in
            let bit = Random.State.int st 8 in
            let undo = flip_bit path ~off ~bit in
            let report = Scrub.scrub_dir ~durable dir in
            let hit = List.exists (fun (f, _) -> f = name) report.Scrub.errors in
            if not hit then
              Alcotest.failf
                "missed flip: seed=%d file=%s off=%d bit=%d (errors: %s)" seed
                name off bit
                (String.concat "; "
                   (List.map
                      (fun (f, m) -> f ^ ": " ^ m)
                      report.Scrub.errors));
            undo ();
            match Scrub.scrub_dir ~durable dir with
            | { Scrub.errors = []; _ } -> ()
            | { Scrub.errors = (f, m) :: _; _ } ->
              Alcotest.failf
                "restore did not heal: seed=%d file=%s off=%d bit=%d: %s: %s"
                seed name off bit f m
          end)
        (List.init 40 Fun.id))

(* The live quarantine state machine: a dirty pass quarantines (inserts
   refused, queries answered, repair hook fired); restoring the bytes
   and passing clean lifts the quarantine and counts a repair. *)
let test_scrub_quarantine_and_repair () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 ~memtable_limit:8 dir in
      for i = 0 to 24 do
        ignore (Xlog.insert log (doc i) : int)
      done;
      ignore (Xlog.compact ~wait:true log : bool);
      let base =
        match
          List.filter
            (fun f -> Filename.check_suffix f ".xseq")
            (Array.to_list (Sys.readdir dir))
        with
        | f :: _ -> Filename.concat dir f
        | [] -> Alcotest.fail "no base snapshot after compact"
      in
      let repairs_requested = ref [] in
      let sc = Scrub.create ~interval:3600. ~rate_mb_s:0. log in
      Scrub.set_repair sc (fun diag ->
          repairs_requested := diag :: !repairs_requested);
      (* Clean store: clean pass, no quarantine. *)
      let r0 = Scrub.run_once sc in
      Alcotest.(check int) "pristine pass is clean" 0
        (List.length r0.Scrub.errors);
      (* Corrupt a base region on disk. *)
      let undo = flip_bit base ~off:(file_size base / 2) ~bit:3 in
      let r1 = Scrub.run_once sc in
      Alcotest.(check bool) "dirty pass reports the flip" true
        (r1.Scrub.errors <> []);
      let s1 = Scrub.stats sc in
      Alcotest.(check bool) "quarantined" true s1.Scrub.quarantined;
      Alcotest.(check bool) "errors counted" true (s1.Scrub.errors_found > 0);
      Alcotest.(check bool) "repair hook fired" true (!repairs_requested <> []);
      Alcotest.(check bool) "diagnosis is sticky" true
        (s1.Scrub.last_error <> "");
      (* Quarantine semantics: mutations refused, reads still served. *)
      (match Xlog.insert log (doc 99) with
      | exception Xlog.Degraded _ -> ()
      | _ -> Alcotest.fail "insert accepted while quarantined");
      Alcotest.(check bool) "queries still answer under quarantine" true
        (Xlog.query_xpath log "/P/L" <> []);
      (* Heal the bytes (what a snapshot re-fetch does) and pass again:
         quarantine lifts, the repair is counted, writes resume. *)
      undo ();
      let r2 = Scrub.run_once sc in
      Alcotest.(check int) "healed pass is clean" 0
        (List.length r2.Scrub.errors);
      let s2 = Scrub.stats sc in
      Alcotest.(check bool) "quarantine lifted" false s2.Scrub.quarantined;
      Alcotest.(check bool) "repair counted" true (s2.Scrub.repairs > 0);
      ignore (Xlog.insert log (doc 100) : int);
      Xlog.close log)

(* The periodic thread end to end: start, let it pass at a short
   interval, stop; the pass counter moved and nothing was flagged. *)
let test_scrubber_thread () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 dir in
      for i = 0 to 9 do
        ignore (Xlog.insert log (doc i) : int)
      done;
      ignore (Xlog.compact ~wait:true log : bool);
      let sc = Scrub.create ~interval:0.05 ~rate_mb_s:0. log in
      Scrub.start sc;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        if (Scrub.stats sc).Scrub.passes >= 2 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "scrubber thread made no passes in 5s"
        else begin
          Thread.delay 0.02;
          wait ()
        end
      in
      wait ();
      Scrub.stop sc;
      let s = Scrub.stats sc in
      Alcotest.(check bool) "passes accumulated" true (s.Scrub.passes >= 2);
      Alcotest.(check int) "clean store, no errors" 0 s.Scrub.errors_found;
      Alcotest.(check bool) "bytes were actually read" true (s.Scrub.bytes > 0);
      Xlog.close log)

(* Offline scrub has no fsync frontier, so a tear on the newest WAL
   file normally reads as a recoverable torn tail — but not behind the
   checkpoint's covered offset, which proves those bytes were once
   durable.  A mid-file checkpoint (compact ~rotate:false) makes the
   checkpoint file the newest file: a flip behind the cut must surface
   with no [~durable] passed, while one past the cut stays lenient. *)
let test_scrub_offline_checkpoint_frontier () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 ~memtable_limit:8 dir in
      for i = 0 to 24 do
        ignore (Xlog.insert log (doc i) : int)
      done;
      ignore (Xlog.compact ~wait:true ~rotate:false log : bool);
      let cut = Xlog.wal_durable_position log in
      for i = 25 to 29 do
        ignore (Xlog.insert log (doc i) : int)
      done;
      Xlog.sync log;
      Xlog.close log;
      let wal = Filename.concat dir (Printf.sprintf "wal-%06d.log" cut.file) in
      let r0 = Scrub.scrub_dir dir in
      Alcotest.(check int) "pristine dir is clean" 0
        (List.length r0.Scrub.errors);
      (* Behind the checkpoint cut: once-durable bytes, must surface. *)
      let undo = flip_bit wal ~off:(cut.off / 2) ~bit:5 in
      let r1 = Scrub.scrub_dir dir in
      Alcotest.(check bool) "flip behind the checkpoint cut detected" true
        (List.exists
           (fun (name, _) -> String.equal name (Filename.basename wal))
           r1.Scrub.errors);
      undo ();
      (* Past the cut: indistinguishable from a crash mid-write. *)
      let tail_off = (cut.off + file_size wal) / 2 in
      let undo2 = flip_bit wal ~off:tail_off ~bit:5 in
      let r2 = Scrub.scrub_dir dir in
      Alcotest.(check int) "tear past the cut stays a recoverable tail" 0
        (List.length r2.Scrub.errors);
      undo2 ();
      let r3 = Scrub.scrub_dir dir in
      Alcotest.(check int) "restored dir is clean" 0
        (List.length r3.Scrub.errors))

let () =
  Alcotest.run "selfheal"
    [
      ( "transfer",
        [
          Alcotest.test_case "chunked round trip" `Quick test_transfer_roundtrip;
          Alcotest.test_case "crash-safe staging and install" `Quick
            test_transfer_crash_safe;
          Alcotest.test_case "corrupt stream refused" `Quick
            test_transfer_rejects_corruption;
          Alcotest.test_case "live reseed" `Quick test_reseed_live_handle;
          Alcotest.test_case "empty primary" `Quick test_transfer_empty_primary;
          Alcotest.test_case "follower of a seeded primary" `Quick
            test_follower_of_seeded_primary;
          Alcotest.test_case "legacy xseqcol1 base" `Quick test_legacy_col1_base;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "seeded flips all detected" `Quick
            test_scrub_detects_flips;
          Alcotest.test_case "quarantine and repair" `Quick
            test_scrub_quarantine_and_repair;
          Alcotest.test_case "periodic thread" `Quick test_scrubber_thread;
          Alcotest.test_case "offline checkpoint frontier" `Quick
            test_scrub_offline_checkpoint_frontier;
        ] );
    ]
