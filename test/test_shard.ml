(* Sharded-engine tests: the global id encoding, shard-count metadata
   persistence, per-shard failure visibility (partial answers + recovery
   re-arming), and the equivalence oracle at the heart of the design —
   a K-shard engine must answer every pattern with exactly the document
   set of an unsharded store fed the same operation sequence, for
   K ∈ {1, 2, 3, 8} and under insert/delete/flush/compact
   interleavings.  Ids differ across shard counts by construction, so
   answers are compared as sets of {e insertion ordinals} (the i-th
   successful insert), which also proves determinism across K: every
   engine maps back to the same ordinal set.  Randomized runs reprint
   their seed on failure. *)

module T = Xmlcore.Xml_tree
module Matcher = Xquery.Matcher
module Gen = QCheck.Gen

let e = T.elt
let v = T.text

(* --- scratch ---------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xshard-test-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  rm_rf dir;
  dir

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- id encoding ------------------------------------------------------------ *)

let test_id_encoding () =
  List.iter
    (fun (shard, local) ->
      let id = Xshard.encode_id ~shard ~local in
      Alcotest.(check int) "shard survives" shard (Xshard.shard_of_id id);
      Alcotest.(check int) "local survives" local (Xshard.local_of_id id))
    [
      (0, 0);
      (0, 1);
      (1, 0);
      (7, 123456);
      (Xshard.max_shards - 1, 0);
      (Xshard.max_shards - 1, (1 lsl 52) - 1);
    ];
  (* Shard-major: every id of shard s sorts below every id of s+1, so
     concatenating per-shard sorted answers is already globally sorted. *)
  Alcotest.(check bool) "shard-major order" true
    (Xshard.encode_id ~shard:0 ~local:((1 lsl 52) - 1)
    < Xshard.encode_id ~shard:1 ~local:0);
  (* Shard 0's global ids are the local ids: a 1-shard store is
     id-for-id an Xlog store. *)
  Alcotest.(check int) "shard 0 is transparent" 42
    (Xshard.encode_id ~shard:0 ~local:42)

(* --- documents and patterns -------------------------------------------------- *)

let doc_pool =
  [|
    e "P" [ e "L" [ v "a" ] ];
    e "P" [ e "L" [ e "S" [] ] ];
    e "P" [ e "R" [ e "M" [ v "b" ] ] ];
    e "P" [ e "L" [ e "S" [] ]; e "R" [ v "c" ] ];
    e "P" [ e "D" [ e "U" [ e "N" [ v "gui" ] ] ] ];
    e "P" [];
  |]

let patterns = [ "/P"; "/P/L"; "/P/L/S"; "/P/R" ]
let parsed_patterns = List.map Xseq.Xpath.parse patterns

(* --- meta persistence -------------------------------------------------------- *)

let test_meta_persistence () =
  with_dir (fun dir ->
      let sh = Xshard.open_ ~shards:3 dir in
      ignore (Xshard.insert sh doc_pool.(0) : int);
      Xshard.close sh;
      Alcotest.(check bool) "sharded dir detected" true
        (Xshard.is_sharded_dir dir);
      (* Re-open without an explicit count: the meta file decides. *)
      let sh2 = Xshard.open_ dir in
      Alcotest.(check int) "recorded shard count" 3 (Xshard.shard_count sh2);
      Alcotest.(check int) "document recovered" 1 (Xshard.doc_count sh2);
      Xshard.close sh2;
      (* A conflicting explicit count is an error, not a silent resplit
         (ids of existing documents would decode to the wrong shard). *)
      (match Xshard.open_ ~shards:5 dir with
      | sh3 ->
        Xshard.close sh3;
        Alcotest.fail "conflicting shard count must be rejected"
      | exception Invalid_argument _ -> ()))

(* --- equivalence oracle ------------------------------------------------------ *)

let shard_counts = [ 1; 2; 3; 8 ]

type op = Insert of int | Delete of int | Flush | Compact

(* A reproducible operation script: ordinals name inserts in order, so a
   [Delete k] tombstones whatever document the k-th insert produced —
   the same logical operation whatever ids the engines assigned. *)
let script_of_seed seed =
  let rng = Random.State.make [| seed |] in
  let n = 25 + Random.State.int rng 20 in
  let inserted = ref 0 in
  List.init n (fun _ ->
      let r = Random.State.int rng 100 in
      if r < 60 || !inserted = 0 then begin
        incr inserted;
        Insert (Random.State.int rng (Array.length doc_pool))
      end
      else if r < 80 then Delete (Random.State.int rng !inserted)
      else if r < 90 then Flush
      else Compact)

let script_to_string ops =
  String.concat " "
    (List.map
       (function
         | Insert k -> Printf.sprintf "i%d" k
         | Delete k -> Printf.sprintf "d%d" k
         | Flush -> "f"
         | Compact -> "c")
       ops)

(* Engines under test share one mutation/query face so the script
   applies identically to the unsharded oracle and every K-shard
   engine. *)
type engine = {
  insert : T.t -> int;
  remove : int -> bool;
  flush : unit -> unit;
  compact : unit -> unit;
  query : Matcher.stats -> Xquery.Pattern.t -> int list;
  close : unit -> unit;
}

let xlog_engine dir =
  let log = Xlog.open_ ~memtable_limit:4 ~max_segments:1000 dir in
  {
    insert = Xlog.insert log;
    remove = Xlog.remove log;
    flush = (fun () -> Xlog.flush log);
    compact = (fun () -> ignore (Xlog.compact ~wait:true log : bool));
    query = (fun stats p -> Xlog.query ~stats log p);
    close = (fun () -> Xlog.close log);
  }

let xshard_engine ~shards dir =
  let sh = Xshard.open_ ~shards ~memtable_limit:4 ~max_segments:1000 dir in
  {
    insert = Xshard.insert sh;
    remove = Xshard.remove sh;
    flush = (fun () -> Xshard.flush sh);
    compact = (fun () -> ignore (Xshard.compact ~wait:true sh : bool));
    query = (fun stats p -> Xshard.query ~stats sh p);
    close = (fun () -> Xshard.close sh);
  }

(* Run the script, returning ordinal→id.  Every mutation must be
   accepted (no faults are injected here): disagreement on [remove]'s
   result is itself an oracle violation, caught by the caller comparing
   the returned tables. *)
let run_script eng ops =
  let ids = ref [] in
  let n = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Insert k ->
        ids := eng.insert doc_pool.(k) :: !ids;
        incr n
      | Delete ord -> ignore (eng.remove (List.nth !ids (!n - 1 - ord)) : bool)
      | Flush -> eng.flush ()
      | Compact -> eng.compact ())
    ops;
  Array.of_list (List.rev !ids)

let ordinals_of_answer ids_by_ordinal answer =
  let rev = Hashtbl.create 64 in
  Array.iteri (fun ord id -> Hashtbl.replace rev id ord) ids_by_ordinal;
  List.map
    (fun id ->
      match Hashtbl.find_opt rev id with
      | Some ord -> ord
      | None -> Alcotest.failf "answer id %d was never handed out" id)
    answer

let check_sorted name ids =
  ignore
    (List.fold_left
       (fun prev id ->
         if id <= prev then
           Alcotest.failf "%s: answer not strictly ascending at %d" name id;
         id)
       min_int ids
      : int)

(* Per-pattern answer-ordinal snapshot of an engine.  The matcher stats
   are exercised but not compared across engines: [Matcher.matches]
   counts complete query-sequence matches in the {e index} — distinct
   structural paths per segment — so it depends on how documents
   cluster into segments, which sharding changes by design.  The
   document-level match counts (answer cardinalities) are what must be
   invariant, and they are checked exactly. *)
let snapshot ids_by_ordinal eng =
  List.map
    (fun p ->
      let stats = Matcher.create_stats () in
      let ids = eng.query stats p in
      check_sorted (Xquery.Pattern.to_string p) ids;
      (List.sort compare (ordinals_of_answer ids_by_ordinal ids), List.length ids))
    parsed_patterns

(* Every base snapshot under [dir], a shard directory or a store's,
   loaded and held to the index invariants. *)
let rec check_bases what dir =
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then check_bases what path
      else if String.starts_with ~prefix:"base-" name then begin
        let base = Xseq.load path in
        Invariants.check (what ^ " " ^ path) base;
        Option.iter Xstorage.Store.close (Xseq.backing_store base)
      end)
    (Sys.readdir dir)

(* One equivalence run: the script against the unsharded oracle and
   every K-shard engine.  Answer ordinal sets and per-pattern match
   counts must agree on the raw post-script state — whatever mix of
   memtables, segments and pending tombstones each engine happens to
   hold — and again after flushing + compacting both sides, which
   exercises seal and tombstone-purge equivalence too.  Every base the
   compaction wrote holds the index invariants. *)
let equivalence_run seed =
  let ops = script_of_seed seed in
  with_dir (fun oracle_dir ->
      let oracle = xlog_engine oracle_dir in
      let oracle_ids = run_script oracle ops in
      let oracle_raw = snapshot oracle_ids oracle in
      oracle.flush ();
      oracle.compact ();
      check_bases (Printf.sprintf "seed %d oracle" seed) oracle_dir;
      let oracle_compacted = snapshot oracle_ids oracle in
      List.iter
        (fun shards ->
          with_dir (fun dir ->
              let eng = xshard_engine ~shards dir in
              Fun.protect
                ~finally:(fun () -> eng.close ())
                (fun () ->
                  let ids_tbl = run_script eng ops in
                  let raw = snapshot ids_tbl eng in
                  eng.flush ();
                  eng.compact ();
                  check_bases (Printf.sprintf "seed %d K=%d" seed shards) dir;
                  let compacted = snapshot ids_tbl eng in
                  let check_round round want got =
                    List.iteri
                      (fun i pat ->
                        let want_ordinals, want_matches = List.nth want i in
                        let got_ordinals, got_matches = List.nth got i in
                        Alcotest.(check (list int))
                          (Printf.sprintf
                             "seed %d K=%d pattern %s (%s): answer ordinals"
                             seed shards
                             (Xquery.Pattern.to_string pat)
                             round)
                          want_ordinals got_ordinals;
                        Alcotest.(check int)
                          (Printf.sprintf
                             "seed %d K=%d pattern %s (%s): match count" seed
                             shards
                             (Xquery.Pattern.to_string pat)
                             round)
                          want_matches got_matches)
                      parsed_patterns
                  in
                  check_round "raw" oracle_raw raw;
                  check_round "compacted" oracle_compacted compacted)))
        shard_counts;
      oracle.close ())

let shard_iters =
  match Sys.getenv_opt "XSEQ_SHARD_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with Failure _ -> 12)
  | None -> 12

let qcheck_equivalence =
  QCheck.Test.make ~count:shard_iters
    ~name:"equivalence: K shards = unsharded oracle"
    (QCheck.make
       ~print:(fun seed ->
         Printf.sprintf "seed %d (script %s)" seed
           (script_to_string (script_of_seed seed)))
       Gen.(0 -- 1_000_000))
    (fun seed ->
      equivalence_run seed;
      true)

let test_equivalence_pinned () =
  (* Replayable regression anchors, independent of the QCheck RNG. *)
  List.iter equivalence_run [ 1; 7; 42; 1234 ]

(* --- recovery keeps the equivalence ----------------------------------------- *)

let test_reopen_equivalence () =
  (* Close every engine mid-life, reopen from disk (checkpoint + WAL
     replay across every shard), and re-check one pattern: recovery must
     not bend the answers either. *)
  let ops = script_of_seed 99 in
  with_dir (fun oracle_dir ->
      with_dir (fun dir ->
          let oracle = xlog_engine oracle_dir in
          let oracle_ids = run_script oracle ops in
          let eng = xshard_engine ~shards:3 dir in
          let ids_tbl = run_script eng ops in
          oracle.close ();
          eng.close ();
          let oracle2 = xlog_engine oracle_dir in
          let eng2 = xshard_engine ~shards:3 dir in
          Fun.protect
            ~finally:(fun () ->
              oracle2.close ();
              eng2.close ())
            (fun () ->
              List.iter
                (fun pat ->
                  let want =
                    List.sort compare
                      (ordinals_of_answer oracle_ids
                         (oracle2.query (Matcher.create_stats ()) pat))
                  in
                  let got =
                    List.sort compare
                      (ordinals_of_answer ids_tbl
                         (eng2.query (Matcher.create_stats ()) pat))
                  in
                  Alcotest.(check (list int)) "answers survive reopen" want got)
                parsed_patterns)))

(* --- seeding ------------------------------------------------------------------ *)

(* [seed] routes like [insert_batch] on a fresh store: same ids, same
   answers, the next insert lands on the same id — and no shard's WAL
   holds a seeded record, so a reopen replays nothing. *)
let test_seed_matches_insert_batch () =
  let docs = Array.init 30 (fun i -> doc_pool.(i mod Array.length doc_pool)) in
  with_dir (fun batch_dir ->
      with_dir (fun seed_dir ->
          let batched = Xshard.open_ ~shards:3 batch_dir in
          Fun.protect
            ~finally:(fun () -> Xshard.close batched)
            (fun () ->
              let want = Xshard.insert_batch batched docs in
              let seeded = Xshard.open_ ~shards:3 seed_dir in
              let got = Xshard.seed seeded docs in
              Xshard.close seeded;
              Alcotest.(check (array int)) "same ids" want got;
              let seeded = Xshard.open_ seed_dir in
              Fun.protect
                ~finally:(fun () -> Xshard.close seeded)
                (fun () ->
                  List.iter
                    (fun (i, r) ->
                      Alcotest.(check int)
                        (Printf.sprintf "shard %d replays nothing" i)
                        0 r.Xlog.replayed)
                    (Xshard.recovery seeded);
                  List.iter
                    (fun pat ->
                      Alcotest.(check (list int)) "same answers"
                        (Xshard.query batched pat) (Xshard.query seeded pat))
                    parsed_patterns;
                  Alcotest.(check int) "next insert, same id"
                    (Xshard.insert batched doc_pool.(1))
                    (Xshard.insert seeded doc_pool.(1));
                  match Xshard.seed seeded docs with
                  | _ -> Alcotest.fail "seeded a store that allocated ids"
                  | exception Invalid_argument _ -> ()))))

(* --- batched scatter-gather -------------------------------------------------- *)

let test_query_batch_matches_query () =
  with_dir (fun dir ->
      let sh = Xshard.open_ ~shards:3 ~memtable_limit:4 dir in
      Fun.protect
        ~finally:(fun () -> Xshard.close sh)
        (fun () ->
          for i = 0 to 29 do
            ignore (Xshard.insert sh doc_pool.(i mod Array.length doc_pool) : int)
          done;
          let pats = Array.of_list parsed_patterns in
          let merged = Matcher.create_stats () in
          let batch = Xshard.query_batch ~stats:merged sh pats in
          let singles = Array.map (Xshard.query sh) pats in
          Array.iteri
            (fun i ids ->
              Alcotest.(check (list int)) "batch = singles" singles.(i) ids)
            batch;
          (* The merged stats carry every shard's counters: the batch
             found as many matches as the single-pattern runs did. *)
          let single_matches =
            Array.fold_left
              (fun acc p ->
                let s = Matcher.create_stats () in
                ignore (Xshard.query ~stats:s sh p : int list);
                acc + s.Matcher.matches)
              0 pats
          in
          Alcotest.(check int) "merged match count" single_matches
            merged.Matcher.matches))

(* --- per-shard failure visibility -------------------------------------------- *)

let test_down_shard_partial_answers () =
  with_dir (fun dir ->
      let sh = Xshard.open_ ~shards:3 ~memtable_limit:4 dir in
      Fun.protect
        ~finally:(fun () -> Xshard.abandon sh)
        (fun () ->
          let ids =
            Array.init 30 (fun _ -> Xshard.insert sh doc_pool.(0))
          in
          let p = Xseq.Xpath.parse "/P" in
          let before = Xshard.query_detail sh p in
          Alcotest.(check bool) "complete before the failure" true
            before.Xshard.complete;
          (* Declare shard 1 fail-stopped (the engine does this itself
             when a shard operation raises Crashed — test_fault drives
             that path with a real injector). *)
          Xshard.mark_down sh 1 "test fail-stop";
          let after = Xshard.query_detail sh p in
          Alcotest.(check bool) "incomplete with a shard down" false
            after.Xshard.complete;
          Alcotest.(check (list int)) "the gap names the shard" [ 1 ]
            (List.map fst after.Xshard.failed_shards);
          let survivors =
            List.filter (fun id -> Xshard.shard_of_id id <> 1)
              (Array.to_list ids)
          in
          Alcotest.(check (list int)) "survivors still answer"
            (List.sort compare survivors)
            after.Xshard.value;
          (* Writes routed to the down shard are refused loudly... *)
          (match
             Array.exists
               (fun id ->
                 Xshard.shard_of_id id = 1
                 &&
                 match Xshard.remove sh id with
                 | _ -> false
                 | exception Xshard.Shard_down (1, _) -> true)
               ids
           with
          | true -> ()
          | false -> Alcotest.fail "no remove hit the down shard");
          (* ...while the survivors keep accepting them. *)
          (match List.rev survivors with
          | last :: _ ->
            Alcotest.(check bool) "live shards accept writes" true
              (Xshard.remove sh last)
          | [] -> Alcotest.fail "no surviving documents");
          (* Recovery re-opens the shard from disk: every synced record
             replays and the answers are whole again. *)
          Alcotest.(check bool) "recovery re-arms" true (Xshard.recover_shard sh 1);
          let healed = Xshard.query_detail sh p in
          Alcotest.(check bool) "complete after recovery" true
            healed.Xshard.complete;
          Alcotest.(check int) "every document back" 29
            (List.length healed.Xshard.value)))

(* --- suite ------------------------------------------------------------------- *)

let () =
  Alcotest.run "xshard"
    [
      ( "encoding",
        [
          Alcotest.test_case "id encode/decode" `Quick test_id_encoding;
          Alcotest.test_case "meta persistence" `Quick test_meta_persistence;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "pinned seeds" `Quick test_equivalence_pinned;
          QCheck_alcotest.to_alcotest qcheck_equivalence;
          Alcotest.test_case "reopen equivalence" `Quick test_reopen_equivalence;
          Alcotest.test_case "seed = insert_batch, no WAL replay" `Quick
            test_seed_matches_insert_batch;
        ] );
      ( "scatter-gather",
        [
          Alcotest.test_case "batch = singles + stats merge" `Quick
            test_query_batch_matches_query;
          Alcotest.test_case "down shard: partial answers, recovery" `Quick
            test_down_shard_partial_answers;
        ] );
    ]
