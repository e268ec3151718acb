(* Determinism and oracle properties for the domain-parallel paths:

   - [Xseq.build ~domains] must produce an index byte-identical (in its
     columnar snapshot: labels, links, document table) to the
     sequential build, for every sequencing strategy;
   - [Xseq.query_batch] must agree with the sequential [Xseq.query] and
     with the brute-force embedding oracle under 1, 2 and 8 domains;
   - merged per-worker matcher stats must equal the sequential totals
     (no lost or double-counted work);
   - an [Xlog] store building on several domains answers like a
     sequential one.

   Worker domains are shared across properties: spawning is the expensive
   part, so the 2- and 8-domain pools are created lazily once and shut
   down at exit. *)

module Pool = Xutil.Domain_pool
module Syn = Xdatagen.Synthetic
module Qgen = Xdatagen.Query_gen

let pool2 = lazy (Pool.create ~domains:2 ())
let pool8 = lazy (Pool.create ~domains:8 ())

let () =
  at_exit (fun () ->
      List.iter
        (fun p -> if Lazy.is_val p then Pool.shutdown (Lazy.force p))
        [ pool2; pool8 ])

(* The columnar snapshot bytes cover pre/post labels, node paths,
   horizontal links (entries, up-pointers), the document table and the
   path dictionary, so fingerprint equality is label-and-link identity,
   not just equal sizes. *)
let fingerprint = Fingerprint.of_index

(* --- parallel build = sequential build, per strategy ---------------------- *)

let build_configs =
  [
    ("probability", Xseq.default_config);
    ( "probability sampled",
      { Xseq.default_config with sample_fraction = 0.4; sample_seed = 5 } );
    ( "depth-first canonical",
      { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } } );
    ( "breadth-first canonical",
      { Xseq.default_config with
        sequencing = Xseq.Breadth_first { canonical = true }
      } );
    ( "depth-first raw",
      { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = false } } );
    ( "text mode",
      { Xseq.default_config with value_mode = Sequencing.Encoder.Text } );
    ( "text canonical",
      { Xseq.default_config with
        sequencing = Xseq.Depth_first { canonical = true };
        value_mode = Sequencing.Encoder.Text
      } );
    ( "random",
      { Xseq.default_config with sequencing = Xseq.Random 11 } );
    ( "incremental insert",
      { Xseq.default_config with bulk = false } );
  ]

let small_corpus seed =
  let params = { Syn.l = 3; f = 3; a = 15; i = 30; p = 40 } in
  Syn.dataset ~schema_seed:7 ~data_seed:seed params 25

let prop_parallel_build_identical =
  QCheck.Test.make ~name:"parallel build = sequential build (all strategies)"
    ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let docs = small_corpus seed in
      List.for_all
        (fun (name, config) ->
          let seq = Xseq.build ~config docs in
          let par2 = Xseq.build ~pool:(Lazy.force pool2) ~config docs in
          let par8 = Xseq.build ~pool:(Lazy.force pool8) ~config docs in
          let fp = fingerprint seq in
          let ok =
            Xseq.node_count seq = Xseq.node_count par2
            && Xseq.node_count seq = Xseq.node_count par8
            && String.equal fp (fingerprint par2)
            && String.equal fp (fingerprint par8)
          in
          if not ok then
            QCheck.Test.fail_reportf "config %S diverges (seed %d)" name seed;
          ok)
        build_configs)

let prop_parallel_build_identical_xmark =
  QCheck.Test.make
    ~name:"parallel build = sequential build (XMark-like corpora)" ~count:15
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, identical_siblings) ->
      let docs = Xdatagen.Xmark_gen.generate ~seed ~identical_siblings 30 in
      List.for_all
        (fun (name, config) ->
          let seq = Xseq.build ~config docs in
          let par = Xseq.build ~pool:(Lazy.force pool8) ~config docs in
          let ok =
            Xseq.node_count seq = Xseq.node_count par
            && String.equal (fingerprint seq) (fingerprint par)
          in
          if not ok then
            QCheck.Test.fail_reportf "config %S diverges on xmark (seed %d)"
              name seed;
          ok)
        [
          ("probability", Xseq.default_config);
          ( "depth-first canonical",
            { Xseq.default_config with
              sequencing = Xseq.Depth_first { canonical = true }
            } );
          ( "text mode",
            { Xseq.default_config with value_mode = Sequencing.Encoder.Text } );
        ])

let prop_parallel_build_same_answers =
  QCheck.Test.make ~name:"parallel build answers queries like sequential"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let docs = small_corpus seed in
      let seq = Xseq.build docs in
      let par = Xseq.build ~domains:2 docs in
      let opts = { Qgen.default_opts with size = 4; value_prob = 0.5 } in
      List.for_all
        (fun q -> Xseq.query seq q = Xseq.query par q)
        (Qgen.generate ~seed ~opts docs 5))

(* --- query_batch vs sequential query vs oracle ----------------------------- *)

(* One shared ≥200-document corpus and index; properties vary the query
   workload.  [i = 30] gives identical siblings, the regime where the
   constraint check actually rejects candidates. *)
let corpus =
  lazy
    (Syn.dataset ~schema_seed:3 ~data_seed:4
       { Syn.l = 3; f = 3; a = 20; i = 30; p = 40 }
       240)

let corpus_index = lazy (Xseq.build (Lazy.force corpus))

let workload seed =
  let docs = Lazy.force corpus in
  let opts =
    {
      Qgen.size = 4 + (seed mod 3);
      star_prob = 0.15;
      desc_prob = 0.2;
      value_prob = 0.5;
      wide = false;
    }
  in
  Array.of_list (Qgen.generate ~seed ~opts docs 8)

let prop_query_batch_oracle =
  QCheck.Test.make
    ~name:"query_batch = sequential query = oracle (1/2/8 domains)"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let docs = Lazy.force corpus in
      let index = Lazy.force corpus_index in
      let patterns = workload seed in
      let sequential = Array.map (fun q -> Xseq.query index q) patterns in
      let oracle =
        Array.map (fun q -> Xquery.Embedding.filter q docs) patterns
      in
      if sequential <> oracle then
        QCheck.Test.fail_reportf "engine disagrees with oracle (seed %d)" seed;
      List.for_all
        (fun run ->
          let got = run index patterns in
          if got <> sequential then
            QCheck.Test.fail_reportf "batch diverges (seed %d)" seed
          else true)
        [
          (fun i p -> Xseq.query_batch ~domains:1 i p);
          (fun i p -> Xseq.query_batch ~pool:(Lazy.force pool2) i p);
          (fun i p -> Xseq.query_batch ~pool:(Lazy.force pool8) i p);
        ])

let prop_batch_stats_totals =
  QCheck.Test.make
    ~name:"merged batch stats = sequential stats totals" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let index = Lazy.force corpus_index in
      let patterns = workload seed in
      let seq_stats = Xquery.Matcher.create_stats () in
      Array.iter
        (fun q -> ignore (Xseq.query ~stats:seq_stats index q))
        patterns;
      List.for_all
        (fun run ->
          let stats = Xquery.Matcher.create_stats () in
          ignore (run ~stats index patterns : int list array);
          stats.Xquery.Matcher.probes = seq_stats.Xquery.Matcher.probes
          && stats.Xquery.Matcher.candidates
             = seq_stats.Xquery.Matcher.candidates
          && stats.Xquery.Matcher.rejected = seq_stats.Xquery.Matcher.rejected
          && stats.Xquery.Matcher.matches = seq_stats.Xquery.Matcher.matches)
        [
          (fun ~stats i p -> Xseq.query_batch ~domains:1 ~stats i p);
          (fun ~stats i p ->
            Xseq.query_batch ~pool:(Lazy.force pool2) ~stats i p);
          (fun ~stats i p ->
            Xseq.query_batch ~pool:(Lazy.force pool8) ~stats i p);
        ])

(* Regression: N copies of one query run concurrently must count exactly
   N times the single-query work — a shared mutable stats record (the old
   [no_stats] default) would double-count or lose updates under
   domains. *)
let test_no_double_count () =
  let index = Lazy.force corpus_index in
  let q = (workload 77).(0) in
  let single = Xquery.Matcher.create_stats () in
  ignore (Xseq.query ~stats:single index q);
  let n = 32 in
  let stats = Xquery.Matcher.create_stats () in
  let results =
    Xseq.query_batch ~pool:(Lazy.force pool8) ~stats index (Array.make n q)
  in
  Array.iter
    (fun ids ->
      Alcotest.(check (list int)) "same answer" (Xseq.query index q) ids)
    results;
  Alcotest.(check int) "probes scale exactly"
    (n * single.Xquery.Matcher.probes)
    stats.Xquery.Matcher.probes;
  Alcotest.(check int) "matches scale exactly"
    (n * single.Xquery.Matcher.matches)
    stats.Xquery.Matcher.matches

(* Regression for the Stats memo fallback on the batched-query hot path:
   pricing a never-indexed path during query compilation used to take
   the memo mutex once per query of every batch; the cache is now an
   immutable map read with one atomic load and published by CAS.  A
   compile-heavy batch full of unseen paths — every lookup a fallback,
   every domain racing to publish — must agree with the sequential
   answers on a cold cache and again on a warm one, and mixing in seen
   patterns must not perturb their answers. *)
let test_memo_fallback_batch () =
  let index = Lazy.force corpus_index in
  let runs =
    [
      ("1 domain", fun i p -> Xseq.query_batch ~domains:1 i p);
      ("2 domains", fun i p -> Xseq.query_batch ~pool:(Lazy.force pool2) i p);
      ("8 domains", fun i p -> Xseq.query_batch ~pool:(Lazy.force pool8) i p);
    ]
  in
  List.iteri
    (fun r (name, run) ->
      (* Fresh ghost tags per run: each run starts with its own cold
         slice of the memo, whatever the previous runs published. *)
      let patterns =
        Array.init 48 (fun i ->
            if i mod 3 = 0 then (workload 5).(i mod 8)
            else
              Xseq.Xpath.parse
                (Printf.sprintf "/ghost%d_%d/phantom%d/wraith%d" r i (i * 7)
                   (i * 13)))
      in
      let sequential = Array.map (fun q -> Xseq.query index q) patterns in
      let cold = run index patterns in
      let warm = run index patterns in
      Alcotest.(check bool)
        (Printf.sprintf "%s: cold cache agrees" name)
        true (cold = sequential);
      Alcotest.(check bool)
        (Printf.sprintf "%s: warm cache agrees" name)
        true (warm = sequential))
    runs

let test_merge_stats () =
  let a = Xquery.Matcher.create_stats () in
  a.Xquery.Matcher.probes <- 3;
  a.Xquery.Matcher.matches <- 1;
  let b = Xquery.Matcher.create_stats () in
  b.Xquery.Matcher.probes <- 4;
  b.Xquery.Matcher.candidates <- 2;
  Xquery.Matcher.merge_stats ~into:a b;
  Alcotest.(check int) "probes" 7 a.Xquery.Matcher.probes;
  Alcotest.(check int) "candidates" 2 a.Xquery.Matcher.candidates;
  Alcotest.(check int) "matches" 1 a.Xquery.Matcher.matches;
  Alcotest.(check int) "source unchanged" 4 b.Xquery.Matcher.probes

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let test_xlog_parallel () =
  (* An Xlog store whose segment seals and compactions build on two
     domains answers exactly like a sequential one — over sealed delta
     segments, and after compaction like a fresh build. *)
  let docs = Lazy.force corpus in
  let slice = Array.sub docs 0 60 in
  let opts = { Qgen.default_opts with size = 4; value_prob = 0.5 } in
  let queries = Qgen.generate ~seed:21 ~opts slice 6 in
  let dir k =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xseq-parallel-%d-%d" (Unix.getpid ()) k)
  in
  let d1 = dir 1 and d2 = dir 2 in
  List.iter rm_rf [ d1; d2 ];
  Fun.protect
    ~finally:(fun () -> List.iter rm_rf [ d1; d2 ])
    (fun () ->
      let l1 = Xlog.open_ ~sync_every:0 ~memtable_limit:16 d1 in
      let l2 = Xlog.open_ ~sync_every:0 ~domains:2 ~memtable_limit:16 d2 in
      Array.iter
        (fun doc ->
          ignore (Xlog.insert l1 doc : int);
          ignore (Xlog.insert l2 doc : int))
        slice;
      let agree stage want =
        List.iter
          (fun q ->
            let name = stage ^ ": " ^ Xquery.Pattern.to_string q in
            Alcotest.(check (list int)) name (want q) (Xlog.query l1 q);
            Alcotest.(check (list int)) name (want q) (Xlog.query l2 q))
          queries
      in
      Alcotest.(check bool) "segments sealed" true (Xlog.segments l2 > 0);
      agree "segments" (Xlog.query l1);
      ignore (Xlog.compact l1 : bool);
      ignore (Xlog.compact l2 : bool);
      agree "compacted" (Xseq.query (Xseq.build slice));
      Xlog.close l1;
      Xlog.close l2)

let () =
  Alcotest.run "parallel"
    [
      ( "build determinism",
        [
          QCheck_alcotest.to_alcotest prop_parallel_build_identical;
          QCheck_alcotest.to_alcotest prop_parallel_build_identical_xmark;
          QCheck_alcotest.to_alcotest prop_parallel_build_same_answers;
        ] );
      ( "batched queries",
        [
          QCheck_alcotest.to_alcotest prop_query_batch_oracle;
          QCheck_alcotest.to_alcotest prop_batch_stats_totals;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "no double counting" `Quick test_no_double_count;
          Alcotest.test_case "memo fallback off the hot path" `Quick
            test_memo_fallback_batch;
          Alcotest.test_case "merge_stats" `Quick test_merge_stats;
        ] );
      ( "xlog",
        [ Alcotest.test_case "parallel rebuilds" `Quick test_xlog_parallel ] );
    ]
