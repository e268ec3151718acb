(* Durable-ingestion tests: the WAL codec under QCheck round trips,
   truncation at every byte and bit flips (no input may raise); the
   store's merged base+delta+tombstone answers checked id-for-id against
   a from-scratch [Xseq.build] oracle across randomized
   insert/delete/flush/compact schedules; kill-at-a-random-point crash
   recovery (simulated by truncating the WAL at arbitrary byte offsets)
   against the oracle over the prefix of acknowledged operations; and
   compaction racing live queries. *)

module T = Xmlcore.Xml_tree
module Wal = Xlog.Wal
module Gen = QCheck.Gen

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
      (Printf.sprintf "xlog-test-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- document / op generators ---------------------------------------------- *)

let gen_label = Gen.oneofl [ "L"; "S"; "B"; "M" ]

let gen_subtree =
  Gen.(
    sized_size (int_bound 10)
      (fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun l -> e l []) gen_label;
                 map (fun s -> v s) (oneofl [ "x"; "y" ]);
               ]
           else
             map2
               (fun l kids -> e l kids)
               gen_label
               (list_size (int_bound 3) (self (n / 2))))))

(* Documents: an element root (mostly "P" so the /P patterns bite). *)
let gen_doc =
  Gen.(
    map2
      (fun root kids -> e root kids)
      (frequency [ (4, return "P"); (1, return "Q") ])
      (list_size (int_bound 4) gen_subtree))

let gen_wal_op =
  Gen.(
    frequency
      [
        (4, map2 (fun id d -> Wal.Insert (id, d)) (int_bound 1_000_000) gen_doc);
        (1, map (fun id -> Wal.Remove id) (int_bound 1_000_000));
      ])

let arb_wal_op =
  QCheck.make ~print:(fun o -> String.escaped (Wal.encode_op o)) gen_wal_op

let arb_wal_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat "|" (List.map (fun o -> String.escaped (Wal.encode_op o)) ops))
    Gen.(list_size (int_bound 12) gen_wal_op)

let wal_bytes ops = Wal.magic ^ String.concat "" (List.map Wal.encode_record ops)

(* End offset of each record in [wal_bytes ops]. *)
let record_ends ops =
  let off = ref (String.length Wal.magic) in
  List.map
    (fun o ->
      off := !off + String.length (Wal.encode_record o);
      !off)
    ops

(* --- WAL codec: round trips ------------------------------------------------ *)

let qcheck_op_roundtrip =
  QCheck.Test.make ~count:500 ~name:"op payload round trip" arb_wal_op
    (fun op -> Wal.decode_op (Wal.encode_op op) = Ok op)

let qcheck_scan_roundtrip =
  QCheck.Test.make ~count:300 ~name:"scan round trip" arb_wal_ops (fun ops ->
      let s = wal_bytes ops in
      match Wal.scan_string s with
      | Ok { Wal.ops = got; good_bytes; torn } ->
        got = ops && good_bytes = String.length s && torn = None
      | Error _ -> false)

(* --- WAL codec: rejection --------------------------------------------------- *)

let sample_ops =
  [
    Wal.Insert (0, e "P" [ e "L" [ v "x" ] ]);
    Wal.Remove 0;
    Wal.Insert (1, e "P" []);
    Wal.Insert (2, e "Q" [ e "S" []; e "B" [ v "y" ]; v "t" ]);
    Wal.Remove 999;
  ]

(* Truncation at every byte: never raises; the scan keeps exactly the
   records that fit, reports a torn tail iff the cut is mid-record. *)
let test_truncation_everywhere () =
  let file = wal_bytes sample_ops in
  let ends = record_ends sample_ops in
  for k = 0 to String.length file - 1 do
    let cut = String.sub file 0 k in
    if k < String.length Wal.magic then
      match Wal.scan_string cut with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "cut %d: truncated magic accepted" k
    else
      match Wal.scan_string cut with
      | Error m -> Alcotest.failf "cut %d: rejected outright (%s)" k m
      | Ok { Wal.ops; good_bytes; torn } ->
        let want =
          List.filteri (fun i _ -> List.nth ends i <= k) sample_ops
        in
        if ops <> want then Alcotest.failf "cut %d: wrong op prefix" k;
        let boundary = k = String.length Wal.magic || List.mem k ends in
        Alcotest.(check bool)
          (Printf.sprintf "cut %d torn iff mid-record" k)
          (not boundary) (torn <> None);
        Alcotest.(check bool)
          (Printf.sprintf "cut %d good_bytes at a boundary" k)
          true
          (good_bytes = String.length Wal.magic || List.mem good_bytes ends)
  done

(* Bit flips anywhere after the magic: never raise, and whatever
   survives is a prefix of the original op sequence. *)
let qcheck_bit_flips =
  QCheck.Test.make ~count:600 ~name:"bit flips yield a clean prefix"
    QCheck.(pair arb_wal_ops (pair small_nat small_nat))
    (fun (ops, (pos, bit)) ->
      QCheck.assume (ops <> []);
      let file = Bytes.of_string (wal_bytes ops) in
      let m = String.length Wal.magic in
      let pos = m + (pos mod (Bytes.length file - m)) in
      let b = Char.code (Bytes.get file pos) in
      Bytes.set file pos (Char.chr (b lxor (1 lsl (bit mod 8))));
      match Wal.scan_string (Bytes.to_string file) with
      | Error _ -> true (* never for a good magic, but never raises *)
      | Ok { Wal.ops = got; _ } ->
        let rec is_prefix a b =
          match (a, b) with
          | [], _ -> true
          | x :: a', y :: b' -> x = y && is_prefix a' b'
          | _ :: _, [] -> false
        in
        is_prefix got ops)

let qcheck_garbage_never_raises =
  QCheck.Test.make ~count:1000 ~name:"garbage never raises"
    QCheck.(string_gen Gen.char)
    (fun junk ->
      (match Wal.scan_string (Wal.magic ^ junk) with Ok _ | Error _ -> ());
      (match Wal.scan_string junk with Ok _ | Error _ -> ());
      (match Wal.decode_op junk with Ok _ | Error _ -> ());
      true)

(* --- WAL writer ------------------------------------------------------------- *)

let test_writer_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "w.log" in
      Unix.mkdir dir 0o755;
      let w = Wal.create ~sync_every:2 path in
      List.iter (Wal.append w) sample_ops;
      Wal.close w;
      (match Wal.scan_file path with
       | Ok { Wal.ops; torn = None; _ } ->
         Alcotest.(check bool) "all records back" true (ops = sample_ops)
       | _ -> Alcotest.fail "scan failed");
      (* Re-opening appends after the existing records. *)
      let w = Wal.create path in
      Wal.append w (Wal.Remove 1);
      Wal.close w;
      (match Wal.scan_file path with
       | Ok { Wal.ops; _ } ->
         Alcotest.(check int) "appended" (List.length sample_ops + 1)
           (List.length ops)
       | Error m -> Alcotest.fail m);
      (* A foreign file is refused. *)
      let alien = Filename.concat dir "alien.log" in
      let oc = open_out_bin alien in
      output_string oc "not a wal at all";
      close_out oc;
      match Wal.create alien with
      | exception Invalid_argument _ -> ()
      | w ->
        Wal.close w;
        Alcotest.fail "foreign file accepted")

(* --- store vs from-scratch oracle ------------------------------------------ *)

let patterns =
  List.map Xseq.Xpath.parse
    [ "/P/L"; "//S"; "/P//B"; "/P/*/S"; "//L[M='x']"; "//Q" ]

(* The model: acknowledged live documents in id order. *)
let expected_answers live pat =
  match live with
  | [] -> []
  | _ ->
    let ids = Array.of_list (List.map fst live) in
    let oracle = Xseq.build (Array.of_list (List.map snd live)) in
    List.map (fun i -> ids.(i)) (Xseq.query oracle pat)

let check_against_oracle what log live =
  List.iter
    (fun pat ->
      let got = Xlog.query log pat in
      let want = expected_answers live pat in
      if got <> want then
        Alcotest.failf "%s: answers diverge from oracle (got [%s], want [%s])"
          what
          (String.concat ";" (List.map string_of_int got))
          (String.concat ";" (List.map string_of_int want)))
    patterns;
  Alcotest.(check int)
    (what ^ ": doc_count")
    (List.length live) (Xlog.doc_count log)

let test_basic_store () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~memtable_limit:3 dir in
      let d0 = e "P" [ e "L" [ e "S" [] ] ] in
      let d1 = e "P" [ e "B" [ v "x" ] ] in
      let d2 = e "Q" [ e "L" [] ] in
      Alcotest.(check int) "first id" 0 (Xlog.insert log d0);
      Alcotest.(check int) "second id" 1 (Xlog.insert log d1);
      Alcotest.(check int) "third id" 2 (Xlog.insert log d2);
      check_against_oracle "pending only" log [ (0, d0); (1, d1); (2, d2) ];
      (* Seal + tombstone. *)
      Xlog.flush log;
      Alcotest.(check bool) "remove live" true (Xlog.remove log 1);
      Alcotest.(check bool) "double remove" false (Xlog.remove log 1);
      Alcotest.(check bool) "remove unknown" false (Xlog.remove log 99);
      check_against_oracle "sealed + tombstone" log [ (0, d0); (2, d2) ];
      (* Compaction reclaims the tombstone, answers are unchanged. *)
      Alcotest.(check bool) "compact ran" true (Xlog.compact ~wait:true log);
      Alcotest.(check int) "tombstones reclaimed" 0 (Xlog.tombstones log);
      check_against_oracle "compacted" log [ (0, d0); (2, d2) ];
      (* Ids are never reused. *)
      let d3 = e "P" [ e "S" [] ] in
      Alcotest.(check int) "id after compaction" 3 (Xlog.insert log d3);
      check_against_oracle "post-compaction insert" log
        [ (0, d0); (2, d2); (3, d3) ];
      Xlog.close log;
      (* Recovery: everything back, ids stable. *)
      let log = Xlog.open_ dir in
      check_against_oracle "reopened" log [ (0, d0); (2, d2); (3, d3) ];
      Xlog.close log)

(* Randomized schedules of insert / remove / flush / compact, each
   checked against the oracle mid-run and after a close/reopen. *)
type sched_op = S_insert of T.t | S_remove of int | S_flush | S_compact

let gen_schedule =
  Gen.(
    list_size (int_bound 35)
      (frequency
         [
           (6, map (fun d -> S_insert d) gen_doc);
           (2, map (fun k -> S_remove k) (int_bound 64));
           (1, return S_flush);
           (1, return S_compact);
         ]))

let arb_schedule =
  QCheck.make
    ~print:(fun s ->
      String.concat ","
        (List.map
           (function
             | S_insert _ -> "I"
             | S_remove k -> Printf.sprintf "R%d" k
             | S_flush -> "F"
             | S_compact -> "C")
           s))
    gen_schedule

let qcheck_schedules_match_oracle =
  QCheck.Test.make ~count:30 ~name:"schedules match a from-scratch build"
    arb_schedule (fun sched ->
      with_dir (fun dir ->
          let log =
            Xlog.open_ ~sync_every:1 ~memtable_limit:4 ~max_segments:3 dir
          in
          let live = ref [] in
          let next = ref 0 in
          let step = ref 0 in
          List.iter
            (fun op ->
              (match op with
               | S_insert d ->
                 let id = Xlog.insert log d in
                 if id <> !next then
                   Alcotest.failf "id %d, want %d" id !next;
                 incr next;
                 live := !live @ [ (id, d) ]
               | S_remove k ->
                 let id = if !next = 0 then k else k mod !next in
                 let want = List.mem_assoc id !live in
                 let got = Xlog.remove log id in
                 if got <> want then
                   Alcotest.failf "remove %d acknowledged %b, want %b" id got
                     want;
                 live := List.remove_assoc id !live
               | S_flush -> Xlog.flush log
               | S_compact -> ignore (Xlog.compact ~wait:true log : bool));
              incr step;
              (* Oracle-check every few steps (a full build per step is
                 too slow, and the final + reopened checks cover the
                 end state). *)
              if !step mod 7 = 0 then
                check_against_oracle
                  (Printf.sprintf "step %d" !step)
                  log !live)
            sched;
          check_against_oracle "final" log !live;
          Xlog.close log;
          let log = Xlog.open_ ~memtable_limit:4 dir in
          check_against_oracle "reopened" log !live;
          Xlog.close log;
          true))

(* --- kill-at-a-random-point crash recovery ---------------------------------- *)

(* One ingest workload, fully synced, with the WAL offset recorded after
   every acknowledged operation.  "Killing the process" at byte [c] is
   simulated by truncating a copy of the WAL to [c] bytes: everything
   the WAL held at that point survives, the torn tail does not —
   exactly what kill -9 leaves behind with sync_every 1. *)
let crash_workload () =
  let rand = Random.State.make [| 42 |] in
  let doc i =
    e "P"
      [
        e "L" [ v (if i mod 3 = 0 then "x" else "y") ];
        (if i mod 2 = 0 then e "S" [] else e "B" [ e "M" [ v "x" ] ]);
      ]
  in
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 ~memtable_limit:1024 dir in
      let model = ref [] in
      (* (wal offset after op, live set after op) in op order *)
      let steps = ref [] in
      for i = 0 to 39 do
        let d = doc i in
        let id = Xlog.insert log d in
        model := !model @ [ (id, d) ];
        steps := (Xlog.wal_offset log, !model) :: !steps;
        if i mod 5 = 4 then begin
          let victim = Random.State.int rand (id + 1) in
          ignore (Xlog.remove log victim : bool);
          model := List.remove_assoc victim !model;
          steps := (Xlog.wal_offset log, !model) :: !steps
        end
      done;
      Xlog.close log;
      let wal = Filename.concat dir "wal-000000.log" in
      let ic = open_in_bin wal in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (bytes, List.rev !steps))

let live_at_cut steps cut =
  List.fold_left
    (fun acc (off, live) -> if off <= cut then live else acc)
    [] steps

let reopen_and_check what bytes expected_live =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let oc = open_out_bin (Filename.concat dir "wal-000000.log") in
      output_string oc bytes;
      close_out oc;
      let log = Xlog.open_ ~memtable_limit:1024 dir in
      check_against_oracle what log expected_live;
      let r = Xlog.recovery log in
      Xlog.close log;
      r)

let test_kill_at_random_point () =
  let bytes, steps = crash_workload () in
  let n = String.length bytes in
  let rand = Random.State.make [| 7 |] in
  (* Every record boundary plus a spread of arbitrary byte offsets. *)
  let cuts =
    (0 :: 3 :: List.map fst steps)
    @ List.init 60 (fun _ -> Random.State.int rand (n + 1))
  in
  List.iter
    (fun cut ->
      let cut = min cut n in
      let expected = live_at_cut steps cut in
      let r =
        reopen_and_check
          (Printf.sprintf "cut at %d/%d" cut n)
          (String.sub bytes 0 cut) expected
      in
      (* A mid-record cut must be reported as a torn tail. *)
      let boundary =
        cut = 0 || cut = String.length Wal.magic
        || List.exists (fun (off, _) -> off = cut) steps
      in
      if (not boundary) && r.Xlog.torn = [] then
        Alcotest.failf "cut at %d: torn tail not diagnosed" cut)
    cuts

(* A flipped byte in the middle of the log must cost only the records
   from the flipped one onward — recovery keeps the clean prefix. *)
let test_corrupt_record_recovery () =
  let bytes, steps = crash_workload () in
  let offsets = List.map fst steps in
  let rand = Random.State.make [| 19 |] in
  for _ = 1 to 25 do
    let r = Random.State.int rand (List.length offsets) in
    let rec_start =
      if r = 0 then String.length Wal.magic else List.nth offsets (r - 1)
    in
    let rec_end = List.nth offsets r in
    let pos = rec_start + Random.State.int rand (rec_end - rec_start) in
    let b = Bytes.of_string bytes in
    Bytes.set b pos
      (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Random.State.int rand 255)));
    let expected = if r = 0 then [] else snd (List.nth steps (r - 1)) in
    let rcv =
      reopen_and_check
        (Printf.sprintf "flip in record %d at byte %d" r pos)
        (Bytes.to_string b) expected
    in
    if rcv.Xlog.torn = [] then
      Alcotest.failf "flip at %d: corruption not diagnosed" pos
  done

(* Churn — insert records with fresh values, delete the oldest, compact
   — leaves a base whose symbol table holds the live records' paths
   only: as many as a fresh build over them.  Names of deleted records
   go with the base they lived in. *)
let test_churn_dictionary () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~memtable_limit:8 dir in
      let live = Queue.create () in
      for round = 0 to 9 do
        for k = 0 to 19 do
          let key = (round * 20) + k in
          let doc =
            e "P"
              [
                e "L" [ v (Printf.sprintf "value-%d" key) ];
                e (if key mod 3 = 0 then "S" else "B") [];
              ]
          in
          Queue.push (Xlog.insert log doc, doc) live
        done;
        for _ = 1 to 15 do
          ignore (Xlog.remove log (fst (Queue.pop live)) : bool)
        done;
        ignore (Xlog.compact ~wait:true log : bool)
      done;
      let paths index = Sequencing.Symtab.path_count (Xseq.symbols index) in
      let docs = Array.of_seq (Seq.map snd (Queue.to_seq live)) in
      Alcotest.(check int) "live records" 50 (Array.length docs);
      (* The live records' distinct root paths, plus the empty path. *)
      let seen = Hashtbl.create 64 in
      let rec walk prefix = function
        | T.Element (name, cs) ->
          let p = ("<" ^ name) :: prefix in
          Hashtbl.replace seen p ();
          List.iter (walk p) cs
        | T.Value s -> Hashtbl.replace seen (s :: prefix) ()
      in
      Array.iter (walk []) docs;
      let fresh = Hashtbl.length seen + 1 in
      Alcotest.(check int) "a fresh build's dictionary" fresh
        (paths (Xseq.build docs));
      (match Xlog.base log with
       | Some base ->
         Alcotest.(check int) "installed base = a fresh build's" fresh
           (paths base)
       | None -> Alcotest.fail "no base after compaction");
      Xlog.close log;
      let file =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> String.starts_with ~prefix:"base-" f)
        |> List.sort compare |> List.rev |> List.hd
      in
      Alcotest.(check int) "saved base = a fresh build's" fresh
        (paths (Xseq.load (Filename.concat dir file))))

(* A corrupt checkpoint is refused loudly (it is the commit record —
   silently ignoring it could serve an index missing acknowledged
   writes that compaction already pruned from the WAL). *)
let test_corrupt_checkpoint_refused () =
  with_dir (fun dir ->
      let log = Xlog.open_ dir in
      for i = 0 to 9 do
        ignore (Xlog.insert log (e "P" [ e "L" [ v (string_of_int i) ] ]) : int)
      done;
      ignore (Xlog.compact ~wait:true log : bool);
      Xlog.close log;
      let ckp = Filename.concat dir "checkpoint" in
      let ic = open_in_bin ckp in
      let s = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      Bytes.set s (Bytes.length s - 3)
        (Char.chr (Char.code (Bytes.get s (Bytes.length s - 3)) lxor 0x40));
      let oc = open_out_bin ckp in
      output_string oc (Bytes.to_string s);
      close_out oc;
      match Xlog.open_ dir with
      | exception Invalid_argument _ -> ()
      | log ->
        Xlog.close log;
        Alcotest.fail "corrupt checkpoint accepted")

(* --- WAL tail cursor + replication mirror ----------------------------------- *)

(* Drain the WAL of [src] (a store directory) into the follower store
   [dst] by tailing from the follower's own log end — the resume
   contract replication relies on. *)
let catch_up ?(max_bytes = 4096) ~src dst =
  let rec go guard =
    if guard = 0 then Alcotest.fail "catch_up: no progress";
    let pos = Xlog.wal_position dst in
    match Wal.tail ~dir:src ~max_bytes pos with
    | Error e -> Alcotest.failf "tail %s: %s" (Wal.position_to_string pos)
                   (Wal.tail_error_to_string e)
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

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The mirror contract, literally: identical WAL file sequences, modulo
   the torn garbage a dead primary file may carry past the follower's
   copy (never the case in these tests). *)
let check_wal_mirror primary_dir follower_dir =
  let p = Wal.list_files primary_dir and f = Wal.list_files follower_dir in
  Alcotest.(check (list int)) "same WAL file sequence" (List.map fst p)
    (List.map fst f);
  List.iter2
    (fun (i, pp) (_, fp) ->
      if not (String.equal (read_whole pp) (read_whole fp)) then
        Alcotest.failf "wal-%06d.log diverges between primary and follower" i)
    p f

let test_tail_basic () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 ~memtable_limit:1024 dir in
      let docs = List.init 20 (fun i -> e "P" [ e "L" [ v (string_of_int i) ] ]) in
      List.iter (fun d -> ignore (Xlog.insert log d : int)) docs;
      (* Tail from the start: every record comes back, checksum-valid. *)
      let rec drain pos acc =
        match Wal.tail ~dir pos with
        | Error e -> Alcotest.failf "tail: %s" (Wal.tail_error_to_string e)
        | Ok b ->
          if Wal.position_compare b.Wal.b_next pos = 0 then (pos, acc)
          else begin
            (match Wal.scan_records b.Wal.b_records with
            | Ok ops -> drain b.Wal.b_next (acc @ ops)
            | Error m -> Alcotest.failf "scan_records: %s" m)
          end
      in
      let final, ops = drain Wal.start_position [] in
      Alcotest.(check int) "all records shipped" 20 (List.length ops);
      Alcotest.(check int) "cursor at the log end" 0
        (Wal.position_compare final (Xlog.wal_position log));
      (* Caught up: an empty batch that stays put. *)
      (match Wal.tail ~dir final with
      | Ok { Wal.b_count = 0; b_next; _ } when Wal.position_compare b_next final = 0
        -> ()
      | Ok _ -> Alcotest.fail "expected an empty caught-up batch"
      | Error e -> Alcotest.failf "tail: %s" (Wal.tail_error_to_string e));
      (* A position beyond the end of the log is a typed error. *)
      (match Wal.tail ~dir { Wal.file = 99; off = 8 } with
      | Error (Wal.Tail_error _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "position beyond the log accepted");
      (* Rotation: compaction rotates, new records land in the new file,
         and the cursor follows across the boundary.  (Retention holds
         the old file for our live cursor, as a serving primary would.) *)
      Xlog.set_wal_retention log (fun () -> Some final.Wal.file);
      ignore (Xlog.compact ~wait:true log : bool);
      ignore (Xlog.insert log (e "P" [ e "S" [] ]) : int);
      let final2, ops2 = drain final [] in
      Alcotest.(check int) "post-rotation record shipped" 1 (List.length ops2);
      Alcotest.(check int) "cursor followed the rotation" 0
        (Wal.position_compare final2 (Xlog.wal_position log));
      Alcotest.(check bool) "cursor is in a later file" true
        (final2.Wal.file > final.Wal.file);
      Xlog.close log)

(* Edges of the tail contract: a WAL with no records yet answers a
   caught-up empty batch at the start position, not an error. *)
let test_tail_empty_wal () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 dir in
      (match Wal.tail ~dir Wal.start_position with
      | Ok { Wal.b_count = 0; b_records = ""; b_next; _ } ->
        Alcotest.(check int) "cursor stays at the start" 0
          (Wal.position_compare b_next Wal.start_position)
      | Ok b ->
        Alcotest.failf "empty WAL shipped %d records" b.Wal.b_count
      | Error err ->
        Alcotest.failf "empty WAL: %s" (Wal.tail_error_to_string err));
      Xlog.close log)

(* A cursor parked exactly at the end of a rotated-away file: the next
   tail must step into the successor file, not report a tear or stall. *)
let test_tail_at_rotation_boundary () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 dir in
      for i = 0 to 4 do
        ignore (Xlog.insert log (e "P" [ e "L" [ v (string_of_int i) ] ]) : int)
      done;
      let boundary = Xlog.wal_position log in
      (* Hold every file, rotate, append past the boundary. *)
      Xlog.set_wal_retention log (fun () -> Some 0);
      ignore (Xlog.compact ~wait:true log : bool);
      ignore (Xlog.insert log (e "P" [ e "S" [] ]) : int);
      (* The step across the boundary may be its own (empty) batch;
         drain until the cursor stops moving. *)
      let rec drain pos count =
        match Wal.tail ~dir pos with
        | Error err ->
          Alcotest.failf "boundary cursor: %s" (Wal.tail_error_to_string err)
        | Ok b ->
          if Wal.position_compare b.Wal.b_next pos = 0 then (pos, count)
          else drain b.Wal.b_next (count + b.Wal.b_count)
      in
      let final, count = drain boundary 0 in
      Alcotest.(check bool) "stepped into the next file" true
        (final.Wal.file > boundary.Wal.file);
      Alcotest.(check int) "the post-rotation record shipped" 1 count;
      Alcotest.(check int) "cursor reached the log end" 0
        (Wal.position_compare final (Xlog.wal_position log));
      Xlog.close log)

(* A cursor strictly inside a file the checkpoint pruned: still the
   typed [Position_pruned], not a phantom batch from the successor. *)
let test_tail_mid_pruned_file () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 dir in
      for i = 0 to 9 do
        ignore (Xlog.insert log (e "P" [ e "L" [ v (string_of_int i) ] ]) : int)
      done;
      (* A cursor a few records into wal-000000.log. *)
      let mid =
        match Wal.tail ~dir ~max_bytes:64 Wal.start_position with
        | Ok b -> b.Wal.b_next
        | Error err -> Alcotest.failf "tail: %s" (Wal.tail_error_to_string err)
      in
      Alcotest.(check int) "cursor still in the first file" 0 mid.Wal.file;
      ignore (Xlog.compact ~wait:true log : bool);
      Alcotest.(check bool) "first file pruned" false
        (Sys.file_exists (Filename.concat dir "wal-000000.log"));
      (match Wal.tail ~dir mid with
      | Error (Wal.Position_pruned { earliest }) ->
        Alcotest.(check bool) "earliest names a survivor" true
          (earliest.Wal.file > mid.Wal.file)
      | Ok _ -> Alcotest.fail "mid-pruned-file cursor answered a batch"
      | Error (Wal.Tail_error m) ->
        Alcotest.failf "mid-pruned-file cursor was not typed: %s" m);
      Xlog.close log)

(* The satellite contract: a pruned position is a typed error naming the
   earliest retained file — never a Sys_error. *)
let test_tail_pruned_position () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 dir in
      for i = 0 to 9 do
        ignore (Xlog.insert log (e "P" [ e "L" [ v (string_of_int i) ] ]) : int)
      done;
      (* Compaction rotates and prunes wal-000000.log. *)
      ignore (Xlog.compact ~wait:true log : bool);
      Alcotest.(check bool) "old WAL actually pruned" false
        (Sys.file_exists (Filename.concat dir "wal-000000.log"));
      (match Wal.tail ~dir Wal.start_position with
      | Error (Wal.Position_pruned { earliest }) ->
        Alcotest.(check bool) "earliest is past the pruned file" true
          (earliest.Wal.file > 0)
      | Ok _ -> Alcotest.fail "pruned position answered a batch"
      | Error (Wal.Tail_error m) ->
        Alcotest.failf "pruned position was not typed: %s" m);
      (* The retention hook holds pruning back. *)
      Xlog.set_wal_retention log (fun () -> Some 0);
      ignore (Xlog.insert log (e "P" []) : int);
      ignore (Xlog.compact ~wait:true log : bool);
      let kept = List.map fst (Wal.list_files dir) in
      Alcotest.(check bool) "retention kept the old files" true
        (List.length kept >= 2);
      Xlog.close log)

(* A file pruned between the directory listing and the read is a
   pruned position too, never a [Tail_error]: a dangling
   wal-000000.log listed before a real wal-000001.log stands in for
   the checkpoint that removes it mid-tail. *)
let test_tail_vanished_file () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~sync_every:1 dir in
      for i = 0 to 9 do
        ignore (Xlog.insert log (e "P" [ e "L" [ v (string_of_int i) ] ]) : int)
      done;
      ignore (Xlog.compact ~wait:true log : bool);
      Xlog.close log;
      Unix.symlink "wal-gone.log" (Filename.concat dir "wal-000000.log");
      Alcotest.(check (list int)) "both files listed" [ 0; 1 ]
        (List.map fst (Wal.list_files dir));
      List.iter
        (fun off ->
          match Wal.tail ~dir { Wal.file = 0; off } with
          | Error (Wal.Position_pruned { earliest }) ->
            Alcotest.(check string) "earliest names the survivor" "(1, 8)"
              (Wal.position_to_string earliest)
          | Ok _ -> Alcotest.fail "a vanished file answered a batch"
          | Error (Wal.Tail_error m) ->
            Alcotest.failf "a vanished file was not typed as pruned: %s" m)
        [ 8; 100 ])

let test_replica_mirror () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let primary = Xlog.open_ ~sync_every:1 ~memtable_limit:8 pdir in
          let follower = Xlog.open_ ~sync_every:1 ~memtable_limit:8 fdir in
          (* What a serving primary does for its live subscriptions: hold
             WAL files back from pruning up to the follower's cursor. *)
          Xlog.set_wal_retention primary (fun () ->
              Some (Xlog.wal_position follower).Wal.file);
          let docs =
            List.init 30 (fun i ->
                e "P"
                  [
                    e "L" [ v (if i mod 2 = 0 then "x" else "y") ];
                    (if i mod 3 = 0 then e "S" [] else e "B" []);
                  ])
          in
          let live = ref [] in
          List.iteri
            (fun i d ->
              let id = Xlog.insert primary d in
              live := !live @ [ (id, d) ];
              if i mod 7 = 6 then begin
                ignore (Xlog.remove primary (id - 2) : bool);
                live := List.remove_assoc (id - 2) !live
              end;
              (* Ship continuously, including across the rotation below. *)
              catch_up ~src:pdir follower)
            docs;
          (* A rotation mid-stream: the follower must mirror it. *)
          ignore (Xlog.compact ~wait:true primary : bool);
          ignore (Xlog.insert primary (e "P" [ e "M" [ v "x" ] ]) : int);
          live := !live @ [ (Xlog.next_id primary - 1, e "P" [ e "M" [ v "x" ] ]) ];
          catch_up ~src:pdir follower;
          Alcotest.(check int) "same next_id" (Xlog.next_id primary)
            (Xlog.next_id follower);
          Alcotest.(check int) "cursor equality" 0
            (Wal.position_compare
               (Xlog.wal_position primary)
               (Xlog.wal_position follower));
          check_against_oracle "follower answers" follower !live;
          check_wal_mirror pdir fdir;
          (* Restart the follower: its own log end is the resume cursor,
             and the stream continues seamlessly. *)
          Xlog.close follower;
          let follower = Xlog.open_ ~sync_every:1 ~memtable_limit:8 fdir in
          ignore (Xlog.insert primary (e "Q" [ e "L" [] ]) : int);
          live := !live @ [ (Xlog.next_id primary - 1, e "Q" [ e "L" [] ]) ];
          catch_up ~src:pdir follower;
          check_against_oracle "follower after restart" follower !live;
          (* A continuity violation is an Error, not corruption: applying
             the same batch twice is refused. *)
          let pos = Xlog.wal_position follower in
          ignore (Xlog.insert primary (e "Q" []) : int);
          (match Wal.tail ~dir:pdir pos with
          | Ok b ->
            (match
               Xlog.replica_apply follower ~from:pos ~next:b.Wal.b_next
                 b.Wal.b_records
             with
            | Ok _ -> ()
            | Error m -> Alcotest.failf "first apply refused: %s" m);
            (match
               Xlog.replica_apply follower ~from:pos ~next:b.Wal.b_next
                 b.Wal.b_records
             with
            | Ok _ -> Alcotest.fail "duplicate batch accepted"
            | Error _ -> ())
          | Error e -> Alcotest.failf "tail: %s" (Wal.tail_error_to_string e));
          Xlog.close primary;
          Xlog.close follower))

(* Follower-side compaction must not rotate — the file sequence keeps
   mirroring the primary's — and its mid-file checkpoint must recover. *)
let test_replica_compaction_no_rotate () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          (* The primary never compacts in the background: a compaction
             rotating and pruning its WAL while the follower still tails
             it would race [catch_up] (primary rotation is "replica
             mirror"'s subject, with retention pinned). *)
          let primary =
            Xlog.open_ ~sync_every:1 ~memtable_limit:4 ~max_segments:64 pdir
          in
          let follower =
            Xlog.open_ ~sync_every:1 ~memtable_limit:4 ~max_segments:2 fdir
          in
          let live = ref [] in
          for i = 0 to 39 do
            let d = e "P" [ e "L" [ v (string_of_int i) ] ] in
            let id = Xlog.insert primary d in
            live := !live @ [ (id, d) ];
            catch_up ~src:pdir follower
          done;
          (* The follower sealed and auto-compacted along the way (its
             max_segments is small); none of that may rotate its WAL. *)
          let rec wait_bg n =
            if n = 0 then ()
            else if Xlog.segments follower > 2 then begin
              Thread.delay 0.01;
              wait_bg (n - 1)
            end
          in
          wait_bg 200;
          ignore (Xlog.compact ~wait:true ~rotate:false follower : bool);
          Alcotest.(check int) "no invented rotation" 0
            (Wal.position_compare
               (Xlog.wal_position primary)
               (Xlog.wal_position follower));
          check_wal_mirror pdir fdir;
          check_against_oracle "follower post-compaction" follower !live;
          (* Mid-file checkpoint recovers: close, reopen, stream on. *)
          Xlog.close follower;
          let follower = Xlog.open_ ~sync_every:1 ~memtable_limit:4 fdir in
          check_against_oracle "follower reopened on mid-file checkpoint"
            follower !live;
          ignore (Xlog.insert primary (e "Q" []) : int);
          live := !live @ [ (Xlog.next_id primary - 1, e "Q" []) ];
          catch_up ~src:pdir follower;
          check_against_oracle "stream resumed" follower !live;
          (* Promotion is free at this layer: the mirror's writer already
             sits at the log end with the right next id. *)
          Xlog.close primary;
          let d = e "P" [ e "S" [] ] in
          let id = Xlog.insert follower d in
          Alcotest.(check int) "promoted id continues the sequence" 41 id;
          live := !live @ [ (id, d) ];
          check_against_oracle "promoted follower serves writes" follower !live;
          Xlog.close follower))

(* --- bulk seeding and settled compaction ------------------------------------ *)

let seed_docs n =
  Array.init n (fun i ->
      e
        (if i mod 5 = 4 then "Q" else "P")
        [
          e "L" [ v (if i mod 2 = 0 then "x" else "y") ];
          (if i mod 3 = 0 then e "S" [] else e "B" [ e "M" [ v "x" ] ]);
        ])

let seeded n =
  let docs = seed_docs n in
  List.init n (fun i -> (i, docs.(i)))

let base_files dir =
  List.sort compare
    (List.filter
       (fun n -> String.length n > 5 && String.sub n 0 5 = "base-")
       (Array.to_list (Sys.readdir dir)))

let base_format dir name =
  let st = Xstorage.Store.open_file (Filename.concat dir name) in
  Fun.protect
    ~finally:(fun () -> Xstorage.Store.close st)
    (fun () -> Xstorage.Store.file_format st)

let expect_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let test_seed_oracle () =
  with_dir (fun dir ->
      let docs = seed_docs 40 in
      let log = Xlog.open_ ~memtable_limit:4 dir in
      Alcotest.(check (array int)) "ids" (Array.init 40 Fun.id) (Xlog.seed log docs);
      let live = ref (seeded 40) in
      check_against_oracle "seeded" log !live;
      Alcotest.(check int) "no delta" 0 (Xlog.segments log);
      Alcotest.(check int) "no memtable" 0 (Xlog.pending log);
      (* One compressed base; the log starts after the seed. *)
      (match base_files dir with
       | [ b ] ->
         Alcotest.(check bool) "base is xseqcol2" true
           (base_format dir b = Xstorage.Store.Col2);
         Alcotest.(check string) "base is compressed"
           (Containers.name Containers.Compressed)
           (Containers.name (Containers.of_file (Filename.concat dir b)))
       | l -> Alcotest.failf "%d base files" (List.length l));
      let pos = Xlog.wal_position log in
      Alcotest.(check bool) "the WAL rotated" true (pos.Wal.file > 0);
      Alcotest.(check (list int)) "only the fresh WAL file" [ pos.Wal.file ]
        (List.map fst (Wal.list_files dir));
      Alcotest.(check int) "the WAL holds nothing" (String.length Wal.magic)
        pos.Wal.off;
      expect_invalid "a second seed" (fun () -> Xlog.seed log docs);
      let d = e "P" [ e "S" [] ] in
      Alcotest.(check int) "next insert" 40 (Xlog.insert log d);
      live := !live @ [ (40, d) ];
      List.iter
        (fun id ->
          Alcotest.(check bool) "remove a seeded id" true (Xlog.remove log id);
          live := List.remove_assoc id !live)
        [ 0; 17; 39 ];
      check_against_oracle "inserted and removed" log !live;
      Xlog.close log;
      let log = Xlog.open_ ~memtable_limit:4 dir in
      check_against_oracle "reopened" log !live;
      Alcotest.(check bool) "compact" true (Xlog.compact ~wait:true log);
      check_against_oracle "compacted" log !live;
      Xlog.close log;
      let log = Xlog.open_ dir in
      check_against_oracle "reopened after compaction" log !live;
      Alcotest.(check int) "ids continue" 41 (Xlog.insert log d);
      Xlog.close log);
  (* Emptiness is about ids, not live documents: a store whose every
     document was removed still refuses a seed. *)
  with_dir (fun dir ->
      let log = Xlog.open_ dir in
      let id = Xlog.insert log (e "P" []) in
      ignore (Xlog.remove log id : bool);
      expect_invalid "seeding a used store" (fun () -> Xlog.seed log (seed_docs 3));
      Xlog.close log)

(* Power loss during a seed: before the checkpoint rename the store is
   still empty (and can be seeded again); after it, complete. *)
let test_seed_crash () =
  let n = 30 in
  let docs = seed_docs n in
  (* A seed's last fsync is the directory fsync after the checkpoint
     rename; count them on a dry run. *)
  let fsyncs =
    with_dir (fun dir ->
        let log = Xlog.open_ dir in
        let inj = Xfault.Injector.create [] in
        Xfault.with_injector inj (fun () -> ignore (Xlog.seed log docs : int array));
        Xlog.close log;
        Xfault.Injector.op_count inj Xfault.Fsync)
  in
  let crash_seed dir rule =
    let log = Xlog.open_ dir in
    (match
       Xfault.with_injector (Xfault.Injector.create [ rule ]) (fun () ->
           Xlog.seed log docs)
     with
     | _ -> Alcotest.fail "the seed outlived its crash point"
     | exception Xfault.Crashed -> ());
    Xlog.abandon log;
    Xlog.open_ dir
  in
  with_dir (fun dir ->
      let log =
        crash_seed dir { Xfault.at = 0; on = Xfault.Rename; fault = Xfault.Fail_stop }
      in
      Alcotest.(check int) "no id allocated" 0 (Xlog.next_id log);
      check_against_oracle "crashed before the commit" log [];
      ignore (Xlog.seed log docs : int array);
      check_against_oracle "seeded again" log (seeded n);
      Xlog.close log;
      Alcotest.(check int) "the orphan base was pruned" 1
        (List.length (base_files dir));
      let log = Xlog.open_ dir in
      check_against_oracle "reseeded, reopened" log (seeded n);
      Xlog.close log);
  with_dir (fun dir ->
      let log =
        crash_seed dir
          { Xfault.at = fsyncs - 1; on = Xfault.Fsync; fault = Xfault.Fail_stop }
      in
      Alcotest.(check int) "every id allocated" n (Xlog.next_id log);
      check_against_oracle "crashed after the commit" log (seeded n);
      Xlog.close log)

(* What a compaction leaves on disk: base files, checkpoint bytes and
   the WAL position. *)
let disk_state dir log =
  (base_files dir, read_whole (Filename.concat dir "checkpoint"), Xlog.wal_position log)

let check_untouched what dir log =
  let before = disk_state dir log in
  Alcotest.(check bool) (what ^ ": compact") true (Xlog.compact ~wait:true log);
  let files, ckp, pos = disk_state dir log in
  let files0, ckp0, pos0 = before in
  Alcotest.(check (list string)) (what ^ ": same base file") files0 files;
  Alcotest.(check bool) (what ^ ": same checkpoint") true (String.equal ckp0 ckp);
  Alcotest.(check int) (what ^ ": WAL position kept") 0 (Wal.position_compare pos0 pos)

let check_rebuilds what dir log =
  let files0, _, pos0 = disk_state dir log in
  Alcotest.(check bool) (what ^ ": compact") true (Xlog.compact ~wait:true log);
  let files, _, pos = disk_state dir log in
  if files = files0 then Alcotest.failf "%s: the base was not rewritten" what;
  Alcotest.(check bool) (what ^ ": WAL rotated") true (pos.Wal.file > pos0.Wal.file);
  List.iter
    (fun b ->
      Alcotest.(check bool) (what ^ ": new base is xseqcol2") true
        (base_format dir b = Xstorage.Store.Col2);
      (* A base is written compressed, as no plain snapshot is: its
         records and designator names LZ-coded. *)
      Alcotest.(check string) (what ^ ": new base is compressed")
        (Containers.name Containers.Compressed)
        (Containers.name (Containers.of_file (Filename.concat dir b))))
    files;
  (* ...after which the store is settled again. *)
  check_untouched (what ^ ", then again") dir log

let test_settled_compaction () =
  with_dir (fun dir ->
      let log = Xlog.open_ dir in
      ignore (Xlog.seed log (seed_docs 20) : int array);
      let live = ref (seeded 20) in
      check_untouched "seeded" dir log;
      Xlog.flush log;
      check_untouched "flushed" dir log;
      ignore (Xlog.remove log 4 : bool);
      live := List.remove_assoc 4 !live;
      check_rebuilds "tombstone" dir log;
      let d = e "P" [ e "S" [] ] in
      ignore (Xlog.insert log d : int);
      live := !live @ [ (20, d) ];
      Xlog.flush log;
      Alcotest.(check int) "a delta" 1 (Xlog.segments log);
      check_rebuilds "delta" dir log;
      ignore (Xlog.insert log d : int);
      live := !live @ [ (21, d) ];
      check_rebuilds "memtable" dir log;
      check_against_oracle "after the rebuilds" log !live;
      Xlog.close log;
      (* A base built under another configuration is rebuilt under the
         store's. *)
      let config =
        { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } }
      in
      let log = Xlog.open_ ~config dir in
      check_rebuilds "config change" dir log;
      check_against_oracle "rebuilt depth-first" log !live;
      Xlog.close log;
      let log = Xlog.open_ dir in
      check_rebuilds "config changed back" dir log;
      Xlog.close log;
      (* A legacy xseqcol1 base, as older builds wrote it. *)
      (match base_files dir with
       | [ b ] ->
         let path = Filename.concat dir b in
         Containers.(save Col1) (Xseq.load path) path;
         Alcotest.(check bool) "rewritten as xseqcol1" true
           (base_format dir b = Xstorage.Store.Col1)
       | l -> Alcotest.failf "%d base files" (List.length l));
      let log = Xlog.open_ dir in
      check_against_oracle "legacy base" log !live;
      check_rebuilds "legacy base" dir log;
      check_against_oracle "legacy base rebuilt" log !live;
      Xlog.close log)

(* --- prepared plans ---------------------------------------------------------- *)

let test_prepared_stamps () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~memtable_limit:100 dir in
      let d = e "P" [ e "L" [ e "S" [] ] ] in
      ignore (Xlog.insert log d : int);
      let pat = Xseq.Xpath.parse "/P/L/S" in
      let plan = Xlog.prepare log pat in
      Alcotest.(check (list int)) "prepared answers" [ 0 ]
        (Xlog.run_prepared log plan);
      (* Inserts and removes do not invalidate the plan — and the run
         sees them. *)
      ignore (Xlog.insert log d : int);
      Alcotest.(check (list int)) "sees the new doc" [ 0; 1 ]
        (Xlog.run_prepared log plan);
      Alcotest.(check bool) "tombstone" true (Xlog.remove log 0);
      Alcotest.(check (list int)) "sees the tombstone" [ 1 ]
        (Xlog.run_prepared log plan);
      (* Sealing changes the structure: the stamp must trip. *)
      Xlog.flush log;
      (match Xlog.run_prepared log plan with
       | _ -> Alcotest.fail "stale plan ran after a seal"
       | exception Invalid_argument _ -> ());
      let plan = Xlog.prepare log pat in
      Alcotest.(check (list int)) "re-prepared" [ 1 ]
        (Xlog.run_prepared log plan);
      ignore (Xlog.compact ~wait:true log : bool);
      (match Xlog.run_prepared log plan with
       | _ -> Alcotest.fail "stale plan ran after a compaction"
       | exception Invalid_argument _ -> ());
      Xlog.close log)

(* --- compaction racing live queries ------------------------------------------ *)

let test_compaction_race () =
  with_dir (fun dir ->
      let log = Xlog.open_ ~memtable_limit:8 dir in
      let docs =
        Array.init 64 (fun i ->
            e "P"
              [
                e "L" [ v (if i mod 2 = 0 then "x" else "y") ];
                (if i mod 3 = 0 then e "S" [] else e "B" []);
              ])
      in
      Array.iter (fun d -> ignore (Xlog.insert log d : int)) docs;
      for i = 0 to 15 do
        ignore (Xlog.remove log (i * 4) : bool)
      done;
      let live =
        List.filter
          (fun (i, _) -> i mod 4 <> 0)
          (List.mapi (fun i d -> (i, d)) (Array.to_list docs))
      in
      let wants = List.map (fun p -> expected_answers live p) patterns in
      let failures = ref 0 in
      let fm = Mutex.create () in
      let stop = Atomic.make false in
      let querier () =
        while not (Atomic.get stop) do
          List.iter2
            (fun pat want ->
              let got = Xlog.query log pat in
              if got <> want then begin
                Mutex.lock fm;
                incr failures;
                Mutex.unlock fm
              end)
            patterns wants
        done
      in
      let threads = List.init 3 (fun _ -> Thread.create querier ()) in
      (* Several background compactions while the queriers hammer.  The
         churn document has a label no pattern mentions, so every
         intermediate state answers identically. *)
      for _ = 1 to 3 do
        ignore (Xlog.compact ~wait:false log : bool);
        while Xlog.segments log > 0 || Xlog.tombstones log > 0 do
          ignore (Xlog.compact ~wait:false log : bool);
          Thread.delay 0.001
        done;
        ignore (Xlog.insert log (e "Z" []) : int);
        ignore (Xlog.remove log (Xlog.next_id log - 1) : bool);
        Xlog.flush log
      done;
      Atomic.set stop true;
      List.iter Thread.join threads;
      Alcotest.(check int) "no inconsistent answer observed" 0 !failures;
      check_against_oracle "after the dust settles" log live;
      Xlog.close log)

let () =
  Alcotest.run "xlog"
    [
      ( "wal codec",
        [
          QCheck_alcotest.to_alcotest qcheck_op_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_scan_roundtrip;
          Alcotest.test_case "truncation at every byte" `Quick
            test_truncation_everywhere;
          QCheck_alcotest.to_alcotest qcheck_bit_flips;
          QCheck_alcotest.to_alcotest qcheck_garbage_never_raises;
          Alcotest.test_case "writer round trip" `Quick test_writer_roundtrip;
        ] );
      ( "store oracle",
        [
          Alcotest.test_case "insert/remove/flush/compact/reopen" `Quick
            test_basic_store;
          Alcotest.test_case "churn keeps the dictionary live-sized" `Quick
            test_churn_dictionary;
          QCheck_alcotest.to_alcotest qcheck_schedules_match_oracle;
        ] );
      ( "replication",
        [
          Alcotest.test_case "tail cursor" `Quick test_tail_basic;
          Alcotest.test_case "tail of an empty WAL" `Quick test_tail_empty_wal;
          Alcotest.test_case "tail at a rotation boundary" `Quick
            test_tail_at_rotation_boundary;
          Alcotest.test_case "tail inside a pruned file" `Quick
            test_tail_mid_pruned_file;
          Alcotest.test_case "pruned position is typed" `Quick
            test_tail_pruned_position;
          Alcotest.test_case "vanished file is pruned" `Quick
            test_tail_vanished_file;
          Alcotest.test_case "replica mirror" `Quick test_replica_mirror;
          Alcotest.test_case "replica compaction keeps the mirror" `Quick
            test_replica_compaction_no_rotate;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "kill at a random point" `Quick
            test_kill_at_random_point;
          Alcotest.test_case "corrupt mid-log record" `Quick
            test_corrupt_record_recovery;
          Alcotest.test_case "corrupt checkpoint refused" `Quick
            test_corrupt_checkpoint_refused;
        ] );
      ( "seeding",
        [
          Alcotest.test_case "seed oracle" `Quick test_seed_oracle;
          Alcotest.test_case "crash around the seed commit" `Quick test_seed_crash;
          Alcotest.test_case "settled compaction is a no-op" `Quick
            test_settled_compaction;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "prepared plans stamp out seals" `Quick
            test_prepared_stamps;
          Alcotest.test_case "compaction races queries" `Quick
            test_compaction_race;
        ] );
    ]
