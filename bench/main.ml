(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6), plus bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 — all experiments, default scale
     dune exec bench/main.exe -- fig14a table8
     dune exec bench/main.exe -- --scale 2.0  — larger datasets
     dune exec bench/main.exe -- micro        — bechamel micro-benches only

   Dataset sizes are scaled down from the paper's (millions of records on
   a 2005 server) to laptop-friendly sizes; the *shapes* — which strategy
   wins, by what factor, how curves grow — are the reproduction target.
   EXPERIMENTS.md records paper-vs-measured for every row. *)

module T = Xmlcore.Xml_tree
module S = Sequencing.Strategy
module Syn = Xdatagen.Synthetic
module Qgen = Xdatagen.Query_gen

let scale = ref 1.0
let header title = Printf.printf "\n=== %s ===\n%!" title

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ms t = t *. 1e3
let n_scaled base = max 100 (int_of_float (float_of_int base *. !scale))

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> default)
  | None -> default

(* M14 harness convention (hxhx): every machine-readable result lands
   three times — the stable BENCH_<name>.json at the repo root that CI
   diffs against the committed copy, and
   bench/results/<name>-<timestamp>.json plus <name>-latest.json so
   local runs accumulate a replayable history. *)
let write_json name render =
  let render_to path =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> render oc)
  in
  let stable = Printf.sprintf "BENCH_%s.json" name in
  render_to stable;
  let dir = Filename.concat "bench" "results" in
  (try Unix.mkdir "bench" 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.ENOENT), _, _) -> ());
  match Unix.mkdir dir 0o755 with
  | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) ->
    let tm = Unix.gmtime (Unix.gettimeofday ()) in
    let ts =
      Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
    in
    render_to (Filename.concat dir (Printf.sprintf "%s-%s.json" name ts));
    render_to (Filename.concat dir (Printf.sprintf "%s-latest.json" name));
    Printf.printf "wrote %s (+ %s/%s-{%s,latest}.json)\n%!" stable dir name ts
  | exception Unix.Unix_error _ ->
    (* No bench/ directory here (run from an odd cwd): the stable file
       is still written, only the history is skipped. *)
    Printf.printf "wrote %s\n%!" stable

(* Build one index per sequencing method over the same documents and
   report trie node counts (the quantity of Figures 14/15, Tables 5/6). *)
let build_with sequencing docs =
  Xseq.build
    ~config:{ Xseq.default_config with sequencing; keep_documents = false }
    docs

let nodes_of sequencing docs = Xseq.node_count (build_with sequencing docs)

(* ------------------------------------------------------------------ *)
(* Figure 14: index size vs dataset size for four sequencing methods.  *)
(* ------------------------------------------------------------------ *)

let fig14 name params =
  header
    (Printf.sprintf
       "%s: index size (trie nodes) vs dataset size, dataset %s\n\
        paper: random >> breadth-first > depth-first > constraint (CS), gaps \
        widening with N"
       name (Syn.name params));
  let schema = Syn.schema params in
  Printf.printf "%10s %12s %14s %12s %12s %9s %9s %9s\n" "#docs" "random"
    "breadth-first" "depth-first" "constraint" "rnd/CS" "rnd:data" "CS:data";
  List.iter
    (fun base ->
      let n = n_scaled base in
      let docs = Syn.generate ~schema n in
      let random = nodes_of (Xseq.Random 17) docs in
      let bf = nodes_of (Xseq.Breadth_first { canonical = false }) docs in
      let df = nodes_of (Xseq.Depth_first { canonical = false }) docs in
      let cs = nodes_of Xseq.Probability docs in
      (* The paper's Section 6.2 ratio: disk index size (4n + 8N bytes)
         over the compressed data size (each sequence element ~2 bytes:
         a dictionary-coded path id). *)
      let elements =
        Array.fold_left (fun a d -> a + T.node_count d) 0 docs
      in
      let data_bytes = 2 * elements in
      let ratio nodes =
        float_of_int ((4 * n) + (8 * nodes)) /. float_of_int data_bytes
      in
      Printf.printf "%10d %12d %14d %12d %12d %8.1fx %8.1f:1 %8.1f:1\n%!" n
        random bf df cs
        (float_of_int random /. float_of_int cs)
        (ratio random) (ratio cs))
    [ 2_500; 5_000; 10_000; 20_000; 40_000 ]

let fig14a () = fig14 "Figure 14(a)" { Syn.l = 3; f = 5; a = 25; i = 0; p = 40 }
let fig14b () = fig14 "Figure 14(b)" { Syn.l = 5; f = 3; a = 40; i = 0; p = 5 }

(* ------------------------------------------------------------------ *)
(* Figure 15: impact of identical sibling nodes on index size.         *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  header
    "Figure 15: index size vs identical-sibling percentage, dataset \
     L3F5A25I?P40\n\
     paper: CS degrades towards DF as I -> 100%, but stays smaller (values \
     still probability-ordered)";
  let n = n_scaled 10_000 in
  Printf.printf "%6s %14s %14s %9s\n" "I(%)" "depth-first" "constraint" "DF/CS";
  List.iter
    (fun i ->
      let params = { Syn.l = 3; f = 5; a = 25; i; p = 40 } in
      let docs = Syn.dataset params n in
      let df = nodes_of (Xseq.Depth_first { canonical = false }) docs in
      let cs = nodes_of Xseq.Probability docs in
      Printf.printf "%6d %14d %14d %8.2fx\n%!" i df cs
        (float_of_int df /. float_of_int cs))
    [ 0; 20; 40; 60; 80; 100 ]

(* ------------------------------------------------------------------ *)
(* Tables 5/6: XMark index size with/without identical siblings.       *)
(* ------------------------------------------------------------------ *)

let table56 name ~identical_siblings =
  header
    (Printf.sprintf
       "%s: XMark-like index size (%s identical sibling nodes)\n\
        paper: CS indexes roughly half the nodes of DF"
       name
       (if identical_siblings then "with" else "no"));
  Printf.printf "%10s %12s %12s %12s %9s\n" "records" "XML nodes" "DF" "CS" "DF/CS";
  List.iter
    (fun base ->
      let n = n_scaled base in
      let docs = Xdatagen.Xmark_gen.generate ~identical_siblings n in
      let xml_nodes = Array.fold_left (fun acc d -> acc + T.node_count d) 0 docs in
      let df = nodes_of (Xseq.Depth_first { canonical = false }) docs in
      let cs = nodes_of Xseq.Probability docs in
      Printf.printf "%10d %12d %12d %12d %8.2fx\n%!" n xml_nodes df cs
        (float_of_int df /. float_of_int cs))
    [ 5_000; 10_000; 15_000; 20_000; 25_000 ]

let table5 () = table56 "Table 5" ~identical_siblings:true
let table6 () = table56 "Table 6" ~identical_siblings:false

(* ------------------------------------------------------------------ *)
(* Disk accesses, counted by the real store.                           *)
(* ------------------------------------------------------------------ *)

(* The paper's "# disk accesses" / "I/O cost (# of pages)" are the pages
   the store reads: the index is saved as an xseqcol2 snapshot (1 KiB
   pages) and reopened paged, so a probe that needs a column block reads
   the block's pages through the buffer pool.  [pool_pages] defaults to
   one slot per file page — a pool that never evicts. *)
let with_paged_snapshot ?pool_pages index f =
  let path = Filename.temp_file "xseq_bench" ".xseq" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xseq.save ~compress:true index path;
      let pool_pages =
        match pool_pages with
        | Some n -> n
        | None -> ((Unix.stat path).Unix.st_size / 1024) + 1
      in
      let paged = Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages path in
      let store = Option.get (Xseq.backing_store paged) in
      Fun.protect
        ~finally:(fun () -> Xstorage.Store.close store)
        (fun () -> f paged store))

(* Runs [f] from a cold pool (the load's own reads and earlier queries
   dropped) and returns its result, wall time and the pages it read. *)
let cold_pages store f =
  Xstorage.Store.drop_pool store;
  let before = Xstorage.Store.page_reads store in
  let r, t = time f in
  (r, t, Xstorage.Store.page_reads store - before)

(* ------------------------------------------------------------------ *)
(* Table 7: query performance on XMark (Q1–Q3 of Table 4).             *)
(* ------------------------------------------------------------------ *)

(* Table 7's rows over [n] XMark records, printed as they are measured:
   (query, result size, pages read from a cold pool). *)
let table7_at n =
  let docs = Xdatagen.Xmark_gen.generate ~identical_siblings:true n in
  let index = Xseq.build docs in
  let queries =
    [
      ( "Q1",
        Printf.sprintf
          "/site//item[location='United States']/mail/date[text='%s']"
          Xdatagen.Xmark_gen.q1_date );
      ("Q2", "/site//person/*/age[text='32']");
      ( "Q3",
        Printf.sprintf "//closed_auction[seller/person='%s']/date[text='%s']"
          (Xdatagen.Xmark_gen.a_person_id n)
          Xdatagen.Xmark_gen.q3_date );
    ]
  in
  Printf.printf "(%d records indexed, %d trie nodes)\n" n (Xseq.node_count index);
  Printf.printf "(pages: 1 KiB xseqcol2 pages read from a cold buffer pool)\n";
  Printf.printf "%-4s %-13s %-12s %-15s %-9s\n" "" "query length" "result size"
    "# disk accesses" "time (ms)";
  with_paged_snapshot index (fun paged store ->
      List.map
        (fun (name, q) ->
          let pat = Xseq.Xpath.parse q in
          let ids, t, pages =
            cold_pages store (fun () -> Xseq.query paged pat)
          in
          Printf.printf "%-4s %-13d %-12d %-15d %-9.2f\n%!" name
            (Xseq.Pattern.size pat) (List.length ids) pages (ms t);
          (name, List.length ids, pages))
        queries)

let table7 () =
  header
    "Table 7: Q1-Q3 on the XMark-like dataset\n\
     paper (65k records): Q1 len 6, 1 result, 23 accesses, 0.10s; Q2 len 3, \
     167, 5, 0.02s; Q3 len 5, 6, 9, 0.07s";
  ignore (table7_at (n_scaled 20_000))

(* ------------------------------------------------------------------ *)
(* Table 8: DBLP — constraint sequencing vs path and node indexes.     *)
(* ------------------------------------------------------------------ *)

let table8 () =
  header
    "Table 8: DBLP-like — query-by-paths (DataGuide) vs query-by-nodes \
     (XISS) vs CS\n\
     paper (407k records, seconds): Q1 0.01/1.4/0.02, Q2 2.1/2.5/0.30, Q3 \
     1.9/4.9/0.31, Q4 1.8/4.2/0.31";
  let n = n_scaled 40_000 in
  let docs = Xdatagen.Dblp_gen.generate n in
  let cs = Xseq.build docs in
  let dg = Xbaseline.Dataguide.build docs in
  let xi = Xbaseline.Xiss.build docs in
  let queries =
    [
      ("Q1", "/inproceedings/title");
      ("Q2", "/book[key='Maier']/author");
      ("Q3", "/*/author[text='David Maier']");
      ("Q4", "//author[text='David Maier']");
    ]
  in
  Printf.printf "(%d records)\n" n;
  Printf.printf "%-4s %-34s %10s %10s %10s %8s\n" "" "path expression" "paths(ms)"
    "nodes(ms)" "CS(ms)" "results";
  List.iter
    (fun (name, q) ->
      let pat = Xseq.Xpath.parse q in
      let r_dg, t_dg = time (fun () -> Xbaseline.Dataguide.query dg pat) in
      let r_xi, t_xi = time (fun () -> Xbaseline.Xiss.query xi pat) in
      let r_cs, t_cs = time (fun () -> Xseq.query cs pat) in
      assert (r_dg = r_cs && r_xi = r_cs);
      Printf.printf "%-4s %-34s %10.2f %10.2f %10.2f %8d\n%!" name q (ms t_dg)
        (ms t_xi) (ms t_cs) (List.length r_cs))
    queries

(* ------------------------------------------------------------------ *)
(* Figure 16: synthetic query performance.                              *)
(* ------------------------------------------------------------------ *)

(* Random exact queries of a given pattern size drawn from the corpus.
   [value_prob] controls selectivity: 1.0 keeps every sampled value
   predicate (highly selective); 0.0 yields element-only twigs (the
   low-selectivity regime where cost grows with query length, as in the
   paper's Figure 16). *)
let queries_of_length ?(wide = false) ?(value_prob = 1.0) docs ~qlen ~count ~seed =
  let opts = { Qgen.size = qlen; star_prob = 0.0; desc_prob = 0.0; value_prob; wide } in
  let rec gather seed acc need guard =
    if need <= 0 || guard > 40 then acc
    else begin
      let fresh =
        List.filter
          (fun q -> Xseq.Pattern.size q = qlen)
          (Qgen.generate ~seed ~opts docs (2 * need))
      in
      let took = List.filteri (fun i _ -> i < need) fresh in
      gather (seed + 1) (acc @ took) (need - List.length took) (guard + 1)
    end
  in
  gather seed [] count 0

let avg_query_time index queries =
  let total = ref 0.0 in
  List.iter
    (fun q ->
      let _, t = time (fun () -> Xseq.query index q) in
      total := !total +. t)
    queries;
  !total /. float_of_int (max 1 (List.length queries))

let fig16a () =
  header
    "Figure 16(a): CS query time vs dataset size (L3F5A25I10P40, query \
     length 5)\n\
     paper: sub-linear growth with dataset size";
  let params = { Syn.l = 3; f = 5; a = 25; i = 10; p = 40 } in
  let schema = Syn.schema params in
  Printf.printf "%10s %14s\n" "#docs" "avg time (ms)";
  List.iter
    (fun base ->
      let n = n_scaled base in
      let docs = Syn.generate ~schema n in
      let index = Xseq.build docs in
      let queries = queries_of_length ~value_prob:0.5 docs ~qlen:5 ~count:20 ~seed:2 in
      let t = avg_query_time index queries in
      Printf.printf "%10d %14.3f\n%!" n (ms t))
    [ 5_000; 10_000; 20_000; 40_000; 80_000 ]

let fig16b () =
  header
    "Figure 16(b): CS vs ViST query time vs query length (L3F5A25I10P40)\n\
     paper: ViST (DF sequencing + naive match + joins) is consistently and \
     increasingly slower";
  let params = { Syn.l = 3; f = 5; a = 25; i = 10; p = 40 } in
  let n = n_scaled 50_000 in
  let docs = Syn.dataset params n in
  let cs = Xseq.build docs in
  let vist = Xbaseline.Vist.build docs in
  Printf.printf "(%d records)\n" n;
  Printf.printf "%6s %12s %12s %10s\n" "qlen" "ViST (ms)" "CS (ms)" "ViST/CS";
  List.iter
    (fun qlen ->
      let queries =
        queries_of_length ~wide:true ~value_prob:0.0 docs ~qlen ~count:20 ~seed:3
      in
      if queries <> [] then begin
        let t_cs = avg_query_time cs queries in
        let t_vist =
          let total = ref 0.0 in
          List.iter
            (fun q ->
              let _, t = time (fun () -> Xbaseline.Vist.query vist q) in
              total := !total +. t)
            queries;
          !total /. float_of_int (List.length queries)
        in
        Printf.printf "%6d %12.3f %12.3f %9.1fx\n%!" qlen (ms t_vist) (ms t_cs)
          (t_vist /. t_cs)
      end)
    [ 2; 4; 6; 8; 10; 12 ]

(* Figure 16(c) ([i = 0]) or 16(d) ([i = 25]) over [n] synthetic
   records, printed as measured: (query length, pages per query). *)
let fig16cd_at ~i n =
  let params = { Syn.l = 3; f = 5; a = 25; i; p = 40 } in
  let docs = Syn.dataset params n in
  let index = Xseq.build docs in
  Printf.printf "(%d records; 1 KiB xseqcol2 pages read from a cold pool)\n" n;
  Printf.printf "%6s %16s %14s\n" "qlen" "pages per query" "time (ms)";
  with_paged_snapshot index (fun paged store ->
      List.filter_map
        (fun qlen ->
          let queries =
            queries_of_length ~value_prob:0.0 docs ~qlen ~count:12 ~seed:4
          in
          if queries = [] then None
          else begin
            let total = ref 0.0 and pages = ref 0 in
            List.iter
              (fun q ->
                let _, t, p = cold_pages store (fun () -> Xseq.query paged q) in
                pages := !pages + p;
                total := !total +. t)
              queries;
            let k = List.length queries in
            Printf.printf "%6d %16d %14.3f\n%!" qlen (!pages / k)
              (ms (!total /. float_of_int k));
            Some (qlen, !pages / k)
          end)
        [ 2; 4; 6; 8; 10; 12 ])

let fig16cd name ~i =
  header
    (Printf.sprintf
       "%s: I/O cost and query time vs query length (%s identical siblings)\n\
        paper: index I/O grows with query length (less sharing deep down); \
        identical siblings cost a large constant factor"
       name
       (if i = 0 then "no" else "with"));
  ignore (fig16cd_at ~i (n_scaled 25_000))

let fig16c () = fig16cd "Figure 16(c)" ~i:0
let fig16d () = fig16cd "Figure 16(d)" ~i:25

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out.                  *)
(* ------------------------------------------------------------------ *)

(* How much sampling does gbest need?  (Section 5.2 "approximate it by
   data sampling".) *)
let ablation_sampling () =
  header
    "Ablation: probability estimation sample fraction vs index size\n\
     expectation: a small sample already yields near-optimal sharing";
  let params = { Syn.l = 3; f = 5; a = 25; i = 0; p = 40 } in
  let n = n_scaled 20_000 in
  let docs = Syn.dataset params n in
  Printf.printf "%10s %12s\n" "fraction" "trie nodes";
  List.iter
    (fun fraction ->
      let config =
        {
          Xseq.default_config with
          sample_fraction = fraction;
          keep_documents = false;
        }
      in
      let index = Xseq.build ~config docs in
      Printf.printf "%10.2f %12d\n%!" fraction (Xseq.node_count index))
    [ 0.01; 0.05; 0.20; 1.00 ]

(* Eq. 6: weighting a frequently-queried, selective element. *)
let ablation_weights () =
  header
    "Ablation: Eq. 6 weights on a selective element (Impact 2 of Section \
     5.1)\n\
     expectation: fewer candidates examined when the selective element \
     moves earlier";
  let n = n_scaled 20_000 in
  let docs = Xdatagen.Xmark_gen.generate ~identical_siblings:true n in
  let q =
    Xseq.Xpath.parse
      (Printf.sprintf
         "/site//item[location='United States']/mail/date[text='%s']"
         Xdatagen.Xmark_gen.q1_date)
  in
  Printf.printf "%14s %12s %12s %12s\n" "w(date)" "candidates" "probes" "time(ms)";
  List.iter
    (fun w ->
      (* The statistics price the paths of the index being built. *)
      let weighted symbols =
        let stats = Xschema.Stats.of_documents_array ~symbols docs in
        if w <> 1.0 then Xschema.Stats.set_tag_weight stats "date" w;
        Xschema.Stats.strategy stats
      in
      let index =
        Xseq.build
          ~config:
            {
              Xseq.default_config with
              sequencing = Xseq.Custom weighted;
              keep_documents = false;
            }
          docs
      in
      let mstats = Xquery.Matcher.create_stats () in
      let _, t = time (fun () -> Xseq.query ~stats:mstats index q) in
      Printf.printf "%14.1f %12d %12d %12.2f\n%!" w mstats.Xquery.Matcher.candidates
        mstats.Xquery.Matcher.probes (ms t))
    [ 1.0; 10.0; 100.0 ]

(* LRU buffer pool: page reads (misses) vs pool size over a query
   workload, started from a cold pool and kept warm across queries.
   Printed as measured over [n] synthetic records: (pool pages, page
   reads). *)
let ablation_buffer_at n =
  let params = { Syn.l = 3; f = 5; a = 25; i = 10; p = 40 } in
  let docs = Syn.dataset params n in
  let index = Xseq.build docs in
  let queries = queries_of_length docs ~qlen:5 ~count:200 ~seed:11 in
  Printf.printf "(%d records)\n" n;
  Printf.printf "%14s %12s %12s\n" "buffer pages" "page reads" "page hits";
  List.map
    (fun pool_pages ->
      with_paged_snapshot ~pool_pages index (fun paged store ->
          let hits0 = Xstorage.Store.page_hits store in
          let (), _, reads =
            cold_pages store (fun () ->
                List.iter (fun q -> ignore (Xseq.query paged q)) queries)
          in
          Printf.printf "%14d %12d %12d\n%!" pool_pages reads
            (Xstorage.Store.page_hits store - hits0);
          (pool_pages, reads)))
    [ 16; 64; 256; 1024 ]

let ablation_buffer () =
  header
    "Ablation: LRU buffer pool size vs page reads (query workload of 200 \
     random queries, 1 KiB xseqcol2 pages, pool cold at the start)";
  ignore (ablation_buffer_at (n_scaled 20_000))

(* The page counts of Table 7, Fig. 16(c,d) and the LRU ablation at
   fixed sizes that [--scale] does not change, in BENCH_scorecard.json:
   every value is a count the code determines, so bench/gate.py holds
   each one exactly to the committed file. *)
let scorecard () =
  header
    "Scorecard: Table 7 (2,000 records), Fig. 16(c,d) (2,500) and the LRU \
     ablation (2,000) at fixed sizes (see BENCH_scorecard.json)";
  let t7_n = 2_000 and f16_n = 2_500 and ab_n = 2_000 in
  let t7 = table7_at t7_n in
  let f16c = fig16cd_at ~i:0 f16_n in
  let f16d = fig16cd_at ~i:25 f16_n in
  let ab = ablation_buffer_at ab_n in
  let list f rows = String.concat ", " (List.map f rows) in
  let per_qlen rows =
    list (fun (q, p) -> Printf.sprintf "{\"qlen\": %d, \"pages\": %d}" q p) rows
  in
  write_json "scorecard" (fun oc ->
      Printf.fprintf oc
        "{\n  \"table7\": {\"records\": %d, \"queries\": [%s]},\n\
        \  \"fig16c\": {\"records\": %d, \"pages_per_query\": [%s]},\n\
        \  \"fig16d\": {\"records\": %d, \"pages_per_query\": [%s]},\n\
        \  \"ablation_buffer\": {\"records\": %d, \"reads\": [%s]}\n}\n"
        t7_n
        (list
           (fun (q, results, pages) ->
             Printf.sprintf "{\"query\": %S, \"results\": %d, \"pages\": %d}"
               q results pages)
           t7)
        f16_n (per_qlen f16c) f16_n (per_qlen f16d) ab_n
        (list
           (fun (pool, reads) ->
             Printf.sprintf "{\"pool_pages\": %d, \"page_reads\": %d}" pool
               reads)
           ab))

(* The index build broken down by phase, as [xseq index] runs it:
   parse the records' text, build (the phases [Xseq.build] reports),
   save a plain snapshot. *)
let ablation_bulk () =
  header "Build breakdown by phase (ms)";
  let phases =
    [ "parse"; "flatten+intern"; "counts"; "encode"; "sort+label"; "save" ]
  in
  let corpora =
    [
      ("DBLP", Xdatagen.Dblp_gen.generate (n_scaled 20_000));
      ( "XMark",
        Xdatagen.Xmark_gen.generate ~identical_siblings:true
          (n_scaled 10_000) );
    ]
  in
  let columns =
    List.map
      (fun (name, generated) ->
        let texts = Array.map Xmlcore.Xml_printer.to_string generated in
        let times = Hashtbl.create 8 in
        let docs, t_parse =
          time (fun () -> Array.map Xmlcore.Xml_parser.parse_string texts)
        in
        Hashtbl.replace times "parse" t_parse;
        let index = Xseq.build ~on_phase:(Hashtbl.replace times) docs in
        let path = Filename.temp_file "xseq_bench" ".xseq" in
        let (), t_save = time (fun () -> Xseq.save index path) in
        Sys.remove path;
        Hashtbl.replace times "save" t_save;
        ( Printf.sprintf "%s %d" name (Array.length docs),
          List.map (Hashtbl.find times) phases ))
      corpora
  in
  Printf.printf "%-28s" "phase";
  List.iter (fun (name, _) -> Printf.printf " %14s" name) columns;
  print_newline ();
  let row label values =
    Printf.printf "%-28s" label;
    List.iter (fun v -> Printf.printf " %14.0f" (ms v)) values;
    print_newline ()
  in
  List.iteri
    (fun i phase -> row phase (List.map (fun (_, ts) -> List.nth ts i) columns))
    phases;
  row "total" (List.map (fun (_, ts) -> List.fold_left ( +. ) 0. ts) columns);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Load layer: what restoring a snapshot allocates and keeps.          *)
(* ------------------------------------------------------------------ *)

(* Words allocated since the program started: the minor heap counted
   exactly, plus what went straight to the major heap. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let live_words () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The words [f ()] allocates, and its wall time in ms.  A full
   collection first runs every pending finaliser, so none runs inside
   the span. *)
let counted f =
  Gc.full_major ();
  let before = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let words = allocated_words () -. before in
  (r, words, ms (Unix.gettimeofday () -. t0))

(* The set-up ledger of one corpus, from raw XML to both kinds of
   snapshot: the words (and noisy ms) of the XML parse of the rendered
   records, of each [Xseq.build ?on_phase] phase and of [Xseq.save],
   plain and compressed, and the bytes of each snapshot.  The snapshots
   are left at [plain] and [compressed]. *)
let setup_ledger docs ~plain ~compressed =
  let text =
    String.concat "\n"
      (Array.to_list (Array.map (Xmlcore.Xml_printer.to_string ~indent:false) docs))
  in
  let parsed, parse_words, parse_ms =
    counted (fun () -> Xmlcore.Xml_parser.parse_fragments text)
  in
  let parsed = Array.of_list parsed in
  if not (Array.for_all2 T.equal parsed docs) then
    failwith "load: the parsed records differ from the rendered ones";
  let phases = ref [] in
  Gc.full_major ();
  let mark = ref (allocated_words ()) in
  let index =
    Xseq.build
      ~on_phase:(fun name dt ->
        let words = allocated_words () -. !mark in
        phases := (name, words, ms dt) :: !phases;
        mark := allocated_words ())
      parsed
  in
  let save compress path =
    let (), words, dt = counted (fun () -> Xseq.save ~compress index path) in
    (words, dt, (Unix.stat path).Unix.st_size)
  in
  let plain_words, plain_ms, plain_bytes = save false plain in
  let col2_words, col2_ms, col2_bytes = save true compressed in
  (* (key, words or bytes, ms) in pipeline order; a phase's key is its
     name with '+' spelled '_'. *)
  ( String.length text,
    (("parse", parse_words, parse_ms)
     :: List.rev_map
          (fun (name, w, dt) ->
            (String.map (function '+' -> '_' | c -> c) name, w, dt))
          !phases)
    @ [ ("save_plain", plain_words, plain_ms); ("save_col2", col2_words, col2_ms) ],
    (plain_bytes, col2_bytes) )

(* Nanoseconds per designator lookup (by name, as query compilation
   finds a step's designator) and per [Path.find_child], over every path
   of a loaded table, the best of three passes.  Timings, reported and
   not gated. *)
let lookup_ns symbols =
  let module Path = Sequencing.Symtab.Path in
  let module D = Sequencing.Symtab.Designator in
  let n = Sequencing.Symtab.path_count symbols in
  let paths = Array.init (n - 1) (fun i -> Path.of_int symbols (i + 1)) in
  let names = Array.map (fun p -> D.name symbols (Path.tag symbols p)) paths in
  let values = Array.map (fun p -> D.is_value symbols (Path.tag symbols p)) paths in
  let best f =
    let t = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      t := Float.min !t (Unix.gettimeofday () -. t0)
    done;
    !t *. 1e9 /. float_of_int (max 1 (Array.length paths))
  in
  let desig =
    best (fun () ->
        Array.iteri
          (fun i name ->
            ignore
              (Sys.opaque_identity
                 (if values.(i) then D.find_value symbols name
                  else D.find_tag symbols name)))
          names)
  in
  let child =
    best (fun () ->
        Array.iter
          (fun p ->
            ignore
              (Sys.opaque_identity
                 (Path.find_child symbols (Path.parent symbols p)
                    (Path.tag symbols p))))
          paths)
  in
  (desig, child)

(* Set-up and load of a DBLP corpus (its plain snapshot served resident)
   and of an XMark corpus (its compressed snapshot served paged).  Per
   corpus, the set-up ledger above.  Per load: the words a load
   allocates, the words the loaded index keeps after a full collection,
   the words its symbol table, link directory and statistics reach
   (each apart), the bytes its columns keep outside the heap, the
   median load time and [lookup_ns] of the loaded table.  Word and byte counts are deterministic; every
   load number is taken after a warm-up load.  bench/gate.py holds the
   set-up words and snapshot bytes, the allocated and retained load
   words and the off-heap bytes to ceilings.  Sizes:
   XSEQ_BENCH_LOAD_DBLP, XSEQ_BENCH_LOAD_XMARK (records) and
   XSEQ_BENCH_LOAD_REPS (timed loads). *)
let load_bench () =
  header "Set-up and load layers: words allocated from raw XML to a loaded index";
  let reps = env_int "XSEQ_BENCH_LOAD_REPS" 5 in
  let configs =
    [
      ( "dblp",
        "dblp_plain_resident",
        Xdatagen.Dblp_gen.generate
          (env_int "XSEQ_BENCH_LOAD_DBLP" (n_scaled 20_000)),
        false,
        Xstorage.Store.Resident );
      ( "xmark",
        "xmark_xseqcol2_paged",
        Xdatagen.Xmark_gen.generate ~identical_siblings:true
          (env_int "XSEQ_BENCH_LOAD_XMARK" (n_scaled 10_000)),
        true,
        Xstorage.Store.Paged );
    ]
  in
  let rows =
    List.map
      (fun (corpus, name, docs, compressed_load, mode) ->
        let plain = Filename.temp_file "xseq_bench_setup" ".plain" in
        let compressed = Filename.temp_file "xseq_bench_setup" ".col2" in
        Fun.protect
          ~finally:(fun () -> List.iter Sys.remove [ plain; compressed ])
          (fun () ->
            let input_bytes, ledger, (plain_bytes, col2_bytes) =
              setup_ledger docs ~plain ~compressed
            in
            Printf.printf "%-6s %6d records, %d bytes of XML:" corpus
              (Array.length docs) input_bytes;
            List.iter
              (fun (key, w, dt) -> Printf.printf " %s %.0f words (%.0f ms)," key w dt)
              ledger;
            Printf.printf " snapshots %d / %d bytes\n%!" plain_bytes col2_bytes;
            let path = if compressed_load then compressed else plain in
            let load () = Xseq.load ~mode ~pool_pages:64 path in
            let close t =
              Option.iter Xstorage.Store.close (Xseq.backing_store t)
            in
            close (load ());
            let t, allocated, _ = counted load in
            close t;
            let before = live_words () in
            let t = load () in
            let retained = live_words () - before in
            let labeled = Xseq.labeled t in
            let symtab =
              Obj.reachable_words (Obj.repr (Xindex.Labeled.symbols labeled))
            in
            let directory = Xindex.Labeled.directory_words labeled in
            (* Statistics share the index's symbol table: count the rest. *)
            let stats =
              match Xseq.stats t with
              | Some st -> Obj.reachable_words (Obj.repr st) - symtab
              | None -> 0
            in
            let column_bytes = Xindex.Labeled.column_bytes labeled in
            let paths = Sequencing.Symtab.path_count (Xseq.symbols t) in
            let desig_ns, child_ns = lookup_ns (Xseq.symbols t) in
            close t;
            let times =
              Array.init reps (fun _ ->
                  let t, dt = time load in
                  close t;
                  ms dt)
            in
            Array.sort compare times;
            let load_ms = times.(reps / 2) in
            Printf.printf
              "%-24s %6d records %6d paths: allocated %.0f words, retained \
               %d (symbol table %d, directory %d, statistics %d), %d \
               off-heap column bytes, load %.1f ms, %.0f ns a designator \
               lookup, %.0f ns a find_child\n%!"
              name (Array.length docs) paths allocated retained symtab
              directory stats column_bytes load_ms desig_ns child_ns;
            ( (corpus, Array.length docs, input_bytes, ledger, plain_bytes, col2_bytes),
              ( name,
                Array.length docs,
                paths,
                allocated,
                retained,
                (symtab, directory, stats, column_bytes),
                (load_ms, desig_ns, child_ns) ) )))
      configs
  in
  let last i = if i = List.length rows - 1 then "" else "," in
  write_json "load" (fun oc ->
      Printf.fprintf oc "{\n  \"reps\": %d,\n  \"setup\": [\n" reps;
      List.iteri
        (fun i ((corpus, records, input_bytes, ledger, plain_bytes, col2_bytes), _) ->
          Printf.fprintf oc "    {\"corpus\": %S, \"records\": %d, \"input_bytes\": %d"
            corpus records input_bytes;
          List.iter
            (fun (key, w, _) -> Printf.fprintf oc ", \"%s_words\": %.0f" key w)
            ledger;
          Printf.fprintf oc ", \"plain_bytes\": %d, \"col2_bytes\": %d" plain_bytes
            col2_bytes;
          List.iter
            (fun (key, _, dt) -> Printf.fprintf oc ", \"%s_ms\": %.1f" key dt)
            ledger;
          Printf.fprintf oc "}%s\n" (last i))
        rows;
      Printf.fprintf oc "  ],\n  \"runs\": [\n";
      List.iteri
        (fun i
             ( _,
               ( name,
                 records,
                 paths,
                 allocated,
                 retained,
                 (symtab, directory, stats, column_bytes),
                 (load_ms, desig_ns, child_ns) ) ) ->
          Printf.fprintf oc
            "    {\"config\": %S, \"records\": %d, \"paths\": %d, \
             \"allocated_words\": %.0f, \"retained_words\": %d, \
             \"symtab_words\": %d, \"directory_words\": %d, \
             \"stats_words\": %d, \"column_bytes\": %d, \"load_ms\": \
             %.2f, \"desig_lookup_ns\": %.1f, \"find_child_ns\": %.1f}%s\n"
            name records paths allocated retained symtab directory stats
            column_bytes load_ms desig_ns child_ns (last i))
        rows;
      Printf.fprintf oc "  ]\n}\n")

(* Hashed vs character-sequence value representation (Section 2.1). *)
let ablation_valuemode () =
  header
    "Ablation: value representation — hashed designators vs character \
     sequences\n\
     expectation: text mode costs index size but supports prefix queries";
  let n = n_scaled 10_000 in
  let docs = Xdatagen.Dblp_gen.generate n in
  List.iter
    (fun (name, value_mode) ->
      let index =
        Xseq.build
          ~config:{ Xseq.default_config with value_mode; keep_documents = false }
          docs
      in
      Printf.printf "%-8s %10d trie nodes (avg seq length %.1f)\n%!" name
        (Xseq.node_count index)
        (Xseq.average_sequence_length index))
    [ ("hashed", Sequencing.Encoder.Hashed); ("text", Sequencing.Encoder.Text) ]

(* ------------------------------------------------------------------ *)
(* Parallel: domain-parallel build & batched query throughput.         *)
(* ------------------------------------------------------------------ *)

let parallel () =
  header
    "Parallel: domain-parallel build and batched query execution\n\
     build must be label-identical at every domain count; speedups depend \
     on available cores (see `cores` in BENCH_parallel.json)";
  let cores = Domain.recommended_domain_count () in
  let params = { Syn.l = 3; f = 5; a = 25; i = 10; p = 40 } in
  (* Sizes are env-tunable: the defaults are large enough that a build
     takes whole seconds and the 1→8 domain trend is signal, not timer
     noise; CI or a laptop can dial them down. *)
  let n = env_int "XSEQ_BENCH_RECORDS" (n_scaled 8_000) in
  let n_queries = env_int "XSEQ_BENCH_QUERIES" 400 in
  let docs = Syn.dataset params n in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let baseline = Xseq.build docs in
  (* The columnar snapshot bytes: labels, links, document table and path
     dictionary. *)
  let fingerprint index =
    let store = Xstorage.Store.memory () in
    Xindex.Labeled.add_to_store (Xseq.labeled index) store;
    let file = Filename.temp_file "xseq_fingerprint" ".col" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        Xstorage.Store.write store file;
        In_channel.with_open_bin file In_channel.input_all)
  in
  let base_fp = fingerprint baseline in
  let queries =
    Array.of_list
      (queries_of_length ~value_prob:0.5 docs ~qlen:5 ~count:n_queries ~seed:9)
  in
  let base_answers = Array.map (fun q -> Xseq.query baseline q) queries in
  Printf.printf "(%d records, %d queries, %d recommended domains)\n" n
    (Array.length queries) cores;
  Printf.printf "%8s %14s %10s %16s %12s\n" "domains" "build (ms)" "identical"
    "batch (ms)" "queries/s";
  let rows =
    List.map
      (fun domains ->
        let index, t_build = time (fun () -> Xseq.build ~domains docs) in
        let identical = String.equal (fingerprint index) base_fp in
        if not identical then
          Printf.printf "!! build with %d domains diverged from sequential\n"
            domains;
        let answers, t_batch =
          time (fun () -> Xseq.query_batch ~domains index queries)
        in
        assert (answers = base_answers);
        let qps =
          if t_batch > 0. then float_of_int (Array.length queries) /. t_batch
          else 0.
        in
        Printf.printf "%8d %14.0f %10b %16.1f %12.0f\n%!" domains (ms t_build)
          identical (ms t_batch) qps;
        (domains, t_build, identical, t_batch, qps))
      domain_counts
  in
  let find k =
    let _, b, _, q, _ = List.find (fun (d, _, _, _, _) -> d = k) rows in
    (b, q)
  in
  let b1, q1 = find 1 and b4, q4 = find 4 in
  let build_speedup = if b4 > 0. then b1 /. b4 else 0. in
  let query_speedup = if q4 > 0. then q1 /. q4 else 0. in
  Printf.printf "speedup 4 vs 1 domains: build %.2fx, query batch %.2fx\n%!"
    build_speedup query_speedup;
  write_json "parallel" (fun oc ->
      Printf.fprintf oc
        "{\n  \"cores\": %d,\n  \"records\": %d,\n  \"queries\": %d,\n" cores n
        (Array.length queries);
      Printf.fprintf oc "  \"runs\": [\n";
      List.iteri
        (fun i (domains, t_build, identical, t_batch, qps) ->
          Printf.fprintf oc
            "    {\"domains\": %d, \"build_ms\": %.2f, \"identical\": %b, \
             \"query_batch_ms\": %.2f, \"queries_per_s\": %.0f}%s\n"
            domains (ms t_build) identical (ms t_batch) qps
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc "  \"build_speedup_4v1\": %.3f,\n" build_speedup;
      Printf.fprintf oc "  \"query_speedup_4v1\": %.3f\n}\n" query_speedup)

(* ------------------------------------------------------------------ *)
(* Storage: probe throughput across physical column backends.          *)
(* ------------------------------------------------------------------ *)

(* The bytes of [docs] as a record region of snapshot versions 1 and
   2: a u8 kind and a u32 length before each name or text, and a u32
   child count after each element's name. *)
let spelled_record_bytes docs =
  let rec node = function
    | T.Element (name, cs) ->
      List.fold_left (fun a c -> a + node c) (9 + String.length name) cs
    | T.Value s -> 5 + String.length s
  in
  Array.fold_left (fun a d -> a + node d) 0 docs

let storage () =
  header
    "Storage: columnar flat buffers vs compressed columns served paged\n\
     one index, two physical backings, identical answers required \
     (see BENCH_storage.json)";
  let cores = Domain.recommended_domain_count () in
  let n = n_scaled 8_000 in
  let docs = Xdatagen.Dblp_gen.generate n in
  let index = Xseq.build docs in
  let queries =
    Array.of_list
      (queries_of_length ~value_prob:0.5 docs ~qlen:4 ~count:(n_scaled 300)
         ~seed:31)
  in
  let tmp = Filename.temp_file "xseq_storage" ".idx" in
  let tmpz = Filename.temp_file "xseq_storage" ".idxz" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ tmp; tmpz ])
    (fun () ->
      Xseq.save index tmp;
      Xseq.save ~compress:true index tmpz;
      let zpaged = Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages:64 tmpz in
      let file_bytes = (Unix.stat tmp).Unix.st_size in
      let compressed_bytes = (Unix.stat tmpz).Unix.st_size in
      (* The ratio's numerator is the index's logical bytes (8 an int
         element, blobs as they are, no page padding: [xseq info]'s
         "logical"), not a file of 32-bit elements, which would make the
         ratio read the flat format's own saving as a loss.  The record
         region counts at its size in the spelled-out
         layout of snapshot versions 1 and 2, computed over the records,
         so a more compact record layout shrinks only the file the ratio
         divides by. *)
      let logical_bytes =
        match Xseq.backing_store zpaged with
        | Some s ->
          List.fold_left
            (fun a r ->
              if r.Xstorage.Store.r_name = "docs" then a
              else a + r.Xstorage.Store.r_bytes)
            (spelled_record_bytes docs)
            (Xstorage.Store.regions s)
        | None -> 0
      in
      let ratio =
        if compressed_bytes > 0 then
          float_of_int logical_bytes /. float_of_int compressed_bytes
        else 0.
      in
      (* Both variants run the very same compiled pipeline; only the
         physical column backing differs.  A resident load decodes into
         the flat buffers a build has, so it is not a backing of its
         own. *)
      let variants =
        [
          ( "columnar", Xseq.labeled index, Xseq.strategy index,
            Xseq.value_mode index, None );
          ( "compressed-paged", Xseq.labeled zpaged, Xseq.strategy zpaged,
            Xseq.value_mode zpaged, Xseq.backing_store zpaged );
        ]
      in
      Printf.printf
        "(%d records, %d queries, snapshot %d bytes, %d logical bytes, \
         compressed %d bytes, %.2fx smaller than logical)\n"
        n (Array.length queries) file_bytes logical_bytes compressed_bytes
        ratio;
      Printf.printf "%16s %12s %12s %14s %12s %12s\n" "backend" "batch (ms)"
        "probes" "probes/s" "page reads" "pool hits";
      let reference = ref None in
      let rows =
        List.map
          (fun (name, labeled, strategy, value_mode, store) ->
            let stats = Xquery.Matcher.create_stats () in
            let answers, t =
              time (fun () ->
                  Array.map
                    (fun q ->
                      Xquery.Engine.query ~stats ~strategy ~value_mode labeled
                        q)
                    queries)
            in
            let ok =
              match !reference with
              | None ->
                reference := Some answers;
                true
              | Some r ->
                if answers <> r then
                  Printf.printf
                    "!! backend %s diverged from columnar answers\n" name;
                answers = r
            in
            let probes = stats.Xquery.Matcher.probes in
            let pps = if t > 0. then float_of_int probes /. t else 0. in
            let reads, hits =
              match store with
              | Some s ->
                (Xstorage.Store.page_reads s, Xstorage.Store.page_hits s)
              | None -> (0, 0)
            in
            Printf.printf "%16s %12.1f %12d %14.0f %12d %12d\n%!" name (ms t)
              probes pps reads hits;
            (name, t, probes, pps, reads, hits, ok))
          variants
      in
      let time_of want =
        match List.find_opt (fun (nm, _, _, _, _, _, _) -> nm = want) rows with
        | Some (_, t, _, _, _, _, _) -> t
        | None -> 0.
      in
      (* Intra-run latency ratio: both halves measured under the same
         box interference, so it gates stably where absolute times
         would not. *)
      let zpaged_vs_columnar =
        if time_of "columnar" > 0. then
          time_of "compressed-paged" /. time_of "columnar"
        else 0.
      in
      Printf.printf "compressed-paged vs columnar: %.2fx slower\n"
        zpaged_vs_columnar;
      write_json "storage" (fun oc ->
          Printf.fprintf oc
            "{\n  \"cores\": %d,\n  \"records\": %d,\n  \"queries\": %d,\n\
            \  \"snapshot_bytes\": %d,\n  \"logical_bytes\": %d,\n\
            \  \"compressed_bytes\": %d,\n  \"runs\": [\n"
            cores n (Array.length queries) file_bytes logical_bytes
            compressed_bytes;
          List.iteri
            (fun i (name, t, probes, pps, reads, hits, ok) ->
              Printf.fprintf oc
                "    {\"backend\": %S, \"batch_ms\": %.2f, \"probes\": %d, \
                 \"probes_per_s\": %.0f, \"page_reads\": %d, \"pool_hits\": \
                 %d, \"answers_ok\": %b}%s\n"
                name (ms t) probes pps reads hits ok
                (if i = List.length rows - 1 then "" else ","))
            rows;
          Printf.fprintf oc "  ],\n";
          Printf.fprintf oc "  \"compression_ratio\": %.3f,\n" ratio;
          Printf.fprintf oc "  \"compressed_paged_vs_columnar\": %.3f\n}\n"
            zpaged_vs_columnar))

(* ------------------------------------------------------------------ *)
(* Server: the concurrent query service under closed-loop load.        *)
(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* Closed-loop load generator: [conc] client threads, each with its own
   connection, each firing its share of [requests] over a repeated-shape
   workload.  [`Serial] is one blocking round trip per request (the
   pre-pipelining client shape); [`Pipelined] writes bursts of
   [pipeline_depth] requests before reading any response — the shape the
   event-driven server exists for.  Pipelined latencies are per burst
   (first byte written to last response read), attributed to every
   request in the burst.  Returns (elapsed, sorted latencies, cache
   hits, cache misses, all answers correct). *)
let pipeline_depth = 32

let server_run ~index ~workers ~accept_shards ~mode ~cache ~sock ~xpaths
    ~offline ~requests conc =
  let config =
    {
      Xserver.Server.default_config with
      workers;
      accept_shards;
      max_pending = 4096;
      plan_cache_capacity = (if cache then 512 else 0);
    }
  in
  let server = Xserver.Server.create ~config (Xserver.Server.Static index) in
  Xserver.Server.start server [ Xserver.Server.Unix_sock sock ];
  Fun.protect
    ~finally:(fun () -> Xserver.Server.stop server)
    (fun () ->
      let per_thread = max 1 (requests / conc) in
      let latencies = Array.make_matrix conc per_thread 0. in
      let ok = Atomic.make true in
      let serial_thread ti c =
        for k = 0 to per_thread - 1 do
          let qi = (ti + (k * conc)) mod Array.length xpaths in
          let q0 = Unix.gettimeofday () in
          let ids = Xserver.Client.query c xpaths.(qi) in
          latencies.(ti).(k) <- Unix.gettimeofday () -. q0;
          if ids <> offline.(qi) then Atomic.set ok false
        done
      in
      let pipelined_thread ti c =
        let k = ref 0 in
        while !k < per_thread do
          let burst = min pipeline_depth (per_thread - !k) in
          let qis =
            List.init burst (fun j ->
                (ti + ((!k + j) * conc)) mod Array.length xpaths)
          in
          let q0 = Unix.gettimeofday () in
          let answers =
            Xserver.Client.query_pipeline c
              (List.map (fun qi -> xpaths.(qi)) qis)
          in
          let dt = Unix.gettimeofday () -. q0 in
          List.iteri
            (fun j (qi, ids) ->
              latencies.(ti).(!k + j) <- dt;
              if ids <> offline.(qi) then Atomic.set ok false)
            (List.combine qis answers);
          k := !k + burst
        done
      in
      let t0 = Unix.gettimeofday () in
      let threads =
        List.init conc (fun ti ->
            Thread.create
              (fun () ->
                try
                  Xserver.Client.with_connection
                    (Xserver.Server.Unix_sock sock)
                    (fun c ->
                      match mode with
                      | `Serial -> serial_thread ti c
                      | `Pipelined -> pipelined_thread ti c)
                with _ -> Atomic.set ok false)
              ())
      in
      List.iter Thread.join threads;
      let elapsed = Unix.gettimeofday () -. t0 in
      let cache_t = Xserver.Server.plan_cache server in
      let hits = Xserver.Plan_cache.hits cache_t in
      let misses = Xserver.Plan_cache.misses cache_t in
      let lat = Array.concat (Array.to_list latencies) in
      Array.sort Stdlib.compare lat;
      (elapsed, lat, hits, misses, Atomic.get ok))

let server_bench () =
  header
    "Server: concurrent query service over the wire protocol\n\
     closed-loop load, repeated query shapes, serial vs pipelined \
     clients; the event-driven core should make pipelining pay and the \
     prepared-plan cache should lift throughput by skipping wildcard \
     instantiation (see BENCH_server.json)";
  let n = env_int "XSEQ_BENCH_RECORDS" (n_scaled 4_000) in
  let docs = Xdatagen.Dblp_gen.generate n in
  let index = Xseq.build docs in
  (* Prepare-heavy shapes: wildcards and // make compilation the part the
     plan cache amortises.  Keep only shapes whose XPath rendering
     round-trips through the parser to the same answer, so the wire run
     can be checked against the offline oracle verbatim — then rank by
     prepare/run cost ratio and serve the most compile-dominated ones:
     that is the workload the plan cache exists for, and it keeps the
     experiment meaningful at every --scale (at large corpus sizes an
     unselective query's match time would otherwise swamp the fixed
     compilation cost and flatten the A/B). *)
  let opts =
    { Qgen.size = 6; star_prob = 0.45; desc_prob = 0.40; value_prob = 0.5;
      wide = false }
  in
  let candidates =
    List.filter_map
      (fun p ->
        let xpath = Xseq.Pattern.to_string p in
        match Xseq.Xpath.parse xpath with
        | reparsed when Xseq.query index reparsed = Xseq.query index p ->
          (match Xseq.prepare index reparsed with
           | plans ->
             let t0 = Unix.gettimeofday () in
             let plans' = Xseq.prepare index reparsed in
             let t1 = Unix.gettimeofday () in
             let ids = Xseq.run_prepared index plans' in
             let t2 = Unix.gettimeofday () in
             ignore plans;
             Some (xpath, ids, (t1 -. t0) /. Float.max 1e-7 (t2 -. t1))
           | exception Xquery.Instantiate.Too_many _ -> None)
        | _ -> None
        | exception Xquery.Xpath_parser.Syntax_error _ -> None)
      (Qgen.generate ~seed:77 ~opts docs 160)
  in
  let shapes =
    candidates
    |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
    |> List.filteri (fun i _ -> i < 16)
    |> List.map (fun (xpath, ids, _) -> (xpath, ids))
  in
  let xpaths = Array.of_list (List.map fst shapes) in
  let offline = Array.of_list (List.map snd shapes) in
  (if Sys.getenv_opt "XSEQ_BENCH_EXEC_FLOOR" <> None then
     let plans =
       Array.map (fun x -> Xseq.prepare index (Xseq.Xpath.parse x)) xpaths
     in
     let per = 125 in
     let total = ref 0. in
     Array.iteri
       (fun si p ->
         let t0 = Unix.gettimeofday () in
         for _ = 1 to per do
           ignore (Xseq.run_prepared index p : int list)
         done;
         let dt = Unix.gettimeofday () -. t0 in
         total := !total +. dt;
         Printf.printf "  shape %2d: %8.1f us/run  %s\n%!" si
           (dt /. float_of_int per *. 1e6)
           xpaths.(si))
       plans;
     Printf.printf "exec floor: %.0f plans/s (%.1f us mean)\n%!"
       (float_of_int (per * Array.length plans) /. !total)
       (!total /. float_of_int (per * Array.length plans) *. 1e6));
  let requests =
    env_int "XSEQ_BENCH_REQUESTS" (max 200 (int_of_float (2_000. *. !scale)))
  in
  let cores = Domain.recommended_domain_count () in
  (* Keep at least two worker domains even on a single core: exec chunks
     run for milliseconds, and on the loop thread's own domain they would
     starve every systhread sharing its runtime lock until the 50ms tick
     (client threads in this closed-loop bench included).  Separate
     domains get kernel-scheduler preemption instead. *)
  let workers = env_int "XSEQ_BENCH_WORKERS" (max 2 (min 4 cores)) in
  let accept_shards = max 1 (min 4 (cores / 2)) in
  let conc_levels =
    match Sys.getenv_opt "XSEQ_BENCH_CONCURRENCY" with
    | None -> [ 1; 2; 4; 8 ]
    | Some s -> (
      match
        String.split_on_char ',' s
        |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))
        |> List.filter (fun c -> c > 0)
      with
      | [] -> [ 1; 2; 4; 8 ]
      | levels -> levels)
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xseq_bench_%d.sock" (Unix.getpid ()))
  in
  Printf.printf
    "(%d records, %d distinct shapes, %d requests per run, %d workers, %d \
     accept shards, pipeline depth %d)\n"
    n (Array.length xpaths) requests workers accept_shards pipeline_depth;
  Printf.printf "%10s %6s %6s %12s %10s %10s %10s %10s %6s\n" "mode" "cache"
    "conc" "throughput" "p50 (ms)" "p95 (ms)" "p99 (ms)" "hit rate" "ok";
  let rows =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun cache ->
            List.map
              (fun conc ->
                let elapsed, lat, hits, misses, ok =
                  server_run ~index ~workers ~accept_shards ~mode ~cache
                    ~sock ~xpaths ~offline ~requests conc
                in
                let total = Array.length lat in
                let rps =
                  if elapsed > 0. then float_of_int total /. elapsed else 0.
                in
                let p50 = ms (percentile lat 0.50)
                and p95 = ms (percentile lat 0.95)
                and p99 = ms (percentile lat 0.99) in
                let looked = hits + misses in
                let hit_rate =
                  if looked = 0 then 0.
                  else float_of_int hits /. float_of_int looked
                in
                if not ok then
                  Printf.printf "!! server answers diverged from Xseq.query\n";
                let mode_name =
                  match mode with `Serial -> "serial" | `Pipelined -> "pipelined"
                in
                Printf.printf
                  "%10s %6s %6d %10.0f/s %10.3f %10.3f %10.3f %9.1f%% %6b\n%!"
                  mode_name
                  (if cache then "on" else "off")
                  conc rps p50 p95 p99 (100. *. hit_rate) ok;
                (mode_name, cache, conc, rps, p50, p95, p99, hit_rate, ok))
              conc_levels)
          [ true; false ])
      [ `Serial; `Pipelined ]
  in
  let best pred =
    List.fold_left
      (fun acc (m, c, _, rps, _, _, _, _, _) ->
        if pred m c then max acc rps else acc)
      0. rows
  in
  let serial_on = best (fun m c -> m = "serial" && c)
  and serial_off = best (fun m c -> m = "serial" && not c)
  and best_serial = best (fun m _ -> m = "serial")
  and best_pipelined = best (fun m _ -> m = "pipelined") in
  let cache_speedup =
    if serial_off > 0. then serial_on /. serial_off else 0.
  in
  let pipelined_speedup =
    if best_serial > 0. then best_pipelined /. best_serial else 0.
  in
  let p99_serial_worst =
    List.fold_left
      (fun acc (m, _, _, _, _, _, p99, _, _) ->
        if m = "serial" then Float.max acc p99 else acc)
      0. rows
  in
  Printf.printf
    "best throughput: serial %.0f/s, pipelined %.0f/s (%.2fx); plan cache \
     on/off (serial) %.2fx; worst serial p99 %.3fms\n%!"
    best_serial best_pipelined pipelined_speedup cache_speedup
    p99_serial_worst;
  write_json "server" (fun oc ->
      Printf.fprintf oc
        "{\n  \"cores\": %d,\n  \"records\": %d,\n  \"distinct_queries\": \
         %d,\n  \"requests\": %d,\n  \"workers\": %d,\n  \"accept_shards\": \
         %d,\n  \"pipeline_depth\": %d,\n  \"runs\": [\n"
        cores n (Array.length xpaths) requests workers accept_shards
        pipeline_depth;
      List.iteri
        (fun i (mode_name, cache, conc, rps, p50, p95, p99, hit_rate, ok) ->
          Printf.fprintf oc
            "    {\"mode\": %S, \"plan_cache\": %b, \"concurrency\": %d, \
             \"throughput_rps\": %.0f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
             \"p99_ms\": %.3f, \"cache_hit_rate\": %.4f, \"answers_ok\": \
             %b}%s\n"
            mode_name cache conc rps p50 p95 p99 hit_rate ok
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc
        "  ],\n\
        \  \"cache_speedup_best\": %.3f,\n\
        \  \"best_rps_serial\": %.0f,\n\
        \  \"best_rps_pipelined\": %.0f,\n\
        \  \"pipelined_speedup_best\": %.3f,\n\
        \  \"p99_ms_serial_worst\": %.3f\n\
         }\n"
        cache_speedup best_serial best_pipelined pipelined_speedup
        p99_serial_worst)

(* ------------------------------------------------------------------ *)
(* Ingest: the durable write path — WAL fsync batching, query latency  *)
(* under concurrent ingestion, crash-recovery (replay) time.           *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_store_dir name f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xseq-bench-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ingest_bench () =
  header
    "Ingest: durable write path — WAL fsync batching vs throughput, \
     query latency under concurrent ingestion, recovery time (see \
     BENCH_ingest.json)";
  let n = n_scaled 2_000 in
  let docs = Xdatagen.Dblp_gen.generate n in
  (* A: insert throughput per fsync policy.  sync-every 1 is the durable
     default (one fsync per acknowledged record); larger batches are the
     group-commit trade-off; 0 never syncs (OS page cache only). *)
  let sync_levels = [ 1; 8; 64; 0 ] in
  Printf.printf "%12s %12s %14s %12s\n" "sync-every" "inserts/s" "wall (ms)"
    "WAL bytes";
  let insert_rows =
    List.map
      (fun sync_every ->
        with_store_dir "ingest-a" (fun dir ->
            let log = Xlog.open_ ~sync_every ~memtable_limit:128 dir in
            let (), dt =
              time (fun () ->
                  Array.iter (fun d -> ignore (Xlog.insert log d : int)) docs;
                  Xlog.sync log)
            in
            let wal_bytes = Xlog.wal_offset log in
            Xlog.close log;
            let rate = if dt > 0. then float_of_int n /. dt else 0. in
            Printf.printf "%12s %12.0f %14.1f %12d\n%!"
              (if sync_every = 0 then "never"
               else string_of_int sync_every)
              rate (ms dt) wal_bytes;
            (sync_every, rate, dt, wal_bytes)))
      sync_levels
  in
  (* B: query latency while an ingester hammers the same store,
     vs the same queries against the quiesced store afterwards.
     memtable seals and background compactions happen mid-measurement —
     that interference is exactly what is being measured. *)
  let xpaths = [| "//author"; "//title"; "/article/author" |] in
  let concurrent_lat, quiesced_lat, answers_ok =
    with_store_dir "ingest-b" (fun dir ->
        let log = Xlog.open_ ~sync_every:8 ~memtable_limit:128 dir in
        let seed = n / 2 in
        for i = 0 to seed - 1 do
          ignore (Xlog.insert log docs.(i) : int)
        done;
        Xlog.flush log;
        ignore (Xlog.compact ~wait:true log : bool);
        let done_ = Atomic.make false in
        let ingester =
          Thread.create
            (fun () ->
              for i = seed to n - 1 do
                ignore (Xlog.insert log docs.(i) : int)
              done;
              Xlog.flush log;
              Atomic.set done_ true)
            ()
        in
        let concurrent = ref [] in
        while not (Atomic.get done_) do
          Array.iter
            (fun q ->
              let q0 = Unix.gettimeofday () in
              ignore (Xlog.query_xpath log q : int list);
              concurrent := (Unix.gettimeofday () -. q0) :: !concurrent)
            xpaths
        done;
        Thread.join ingester;
        let rounds = max 1 (List.length !concurrent / Array.length xpaths) in
        let quiesced = ref [] in
        for _ = 1 to rounds do
          Array.iter
            (fun q ->
              let q0 = Unix.gettimeofday () in
              ignore (Xlog.query_xpath log q : int list);
              quiesced := (Unix.gettimeofday () -. q0) :: !quiesced)
            xpaths
        done;
        (* Final answers must be id-for-id a from-scratch build's. *)
        let oracle = Xseq.build docs in
        let ok =
          Array.for_all
            (fun q ->
              Xlog.query_xpath log q
              = Xseq.query oracle (Xseq.Xpath.parse q))
            xpaths
        in
        Xlog.close log;
        let sorted l =
          let a = Array.of_list l in
          Array.sort Stdlib.compare a;
          a
        in
        (sorted !concurrent, sorted !quiesced, ok))
  in
  let c50 = ms (percentile concurrent_lat 0.5)
  and c95 = ms (percentile concurrent_lat 0.95)
  and q50 = ms (percentile quiesced_lat 0.5)
  and q95 = ms (percentile quiesced_lat 0.95) in
  Printf.printf
    "query latency: under ingest p50 %.3f ms p95 %.3f ms (%d queries); \
     quiesced p50 %.3f ms p95 %.3f ms; answers_ok %b\n%!"
    c50 c95
    (Array.length concurrent_lat)
    q50 q95 answers_ok;
  (* C: recovery time — reopen cost with a full WAL to replay, then
     again after a compaction checkpoint absorbed it. *)
  let replay_ms, replayed, ckp_ms, ckp_replayed =
    with_store_dir "ingest-c" (fun dir ->
        let log = Xlog.open_ ~sync_every:8 dir in
        Array.iter (fun d -> ignore (Xlog.insert log d : int)) docs;
        Xlog.close log;
        let log, t_replay = time (fun () -> Xlog.open_ dir) in
        let replayed = (Xlog.recovery log).Xlog.replayed in
        ignore (Xlog.compact ~wait:true log : bool);
        Xlog.close log;
        let log, t_ckp = time (fun () -> Xlog.open_ dir) in
        let ckp_replayed = (Xlog.recovery log).Xlog.replayed in
        Xlog.close log;
        (ms t_replay, replayed, ms t_ckp, ckp_replayed))
  in
  Printf.printf
    "recovery: WAL replay of %d records in %.1f ms; checkpointed open \
     replays %d in %.1f ms\n%!"
    replayed replay_ms ckp_replayed ckp_ms;
  write_json "ingest" (fun oc ->
      Printf.fprintf oc "{\n  \"records\": %d,\n  \"insert_runs\": [\n" n;
      List.iteri
        (fun i (sync_every, rate, dt, wal_bytes) ->
          Printf.fprintf oc
            "    {\"sync_every\": %d, \"inserts_per_s\": %.0f, \"wall_ms\": \
             %.1f, \"wal_bytes\": %d}%s\n"
            sync_every rate (ms dt) wal_bytes
            (if i = List.length insert_rows - 1 then "" else ","))
        insert_rows;
      Printf.fprintf oc
        "  ],\n\
        \  \"query_under_ingest\": {\"concurrent_p50_ms\": %.3f, \
         \"concurrent_p95_ms\": %.3f, \"quiesced_p50_ms\": %.3f, \
         \"quiesced_p95_ms\": %.3f, \"queries\": %d, \"answers_ok\": %b},\n"
        c50 c95 q50 q95
        (Array.length concurrent_lat)
        answers_ok;
      Printf.fprintf oc
        "  \"recovery\": {\"replayed\": %d, \"wal_replay_ms\": %.1f, \
         \"checkpoint_replayed\": %d, \"checkpoint_open_ms\": %.1f}\n}\n"
        replayed replay_ms ckp_replayed ckp_ms)

(* ------------------------------------------------------------------ *)
(* Faultline: what the fault-injection shim costs on the hot write     *)
(* path, and what a degrade/recover cycle costs end to end.            *)
(* ------------------------------------------------------------------ *)

let faults_bench () =
  header
    "Faultline: I/O shim overhead on the durable ingest path, and the \
     cost of a full degrade -> read-only -> recover cycle (see \
     BENCH_faults.json)";
  let n = n_scaled 2_000 in
  let docs = Xdatagen.Dblp_gen.generate n in
  (* A: inserts/s with the shim in its three states.  "off" is the
     production configuration (one atomic load per I/O call); "armed,
     idle" has an injector installed whose rules never fire (the full
     counter/mutex path); "armed, delayed" fires tiny latency spikes to
     bound the cost of an active schedule. *)
  let run_ingest label arm =
    with_store_dir "faults-a" (fun dir ->
        let log = Xlog.open_ ~sync_every:8 ~memtable_limit:128 dir in
        arm ();
        let (), dt =
          Fun.protect ~finally:Xfault.uninstall (fun () ->
              time (fun () ->
                  Array.iter (fun d -> ignore (Xlog.insert log d : int)) docs;
                  Xlog.sync log))
        in
        Xlog.close log;
        let rate = if dt > 0. then float_of_int n /. dt else 0. in
        Printf.printf "%16s %12.0f inserts/s %12.1f ms\n%!" label rate (ms dt);
        (label, rate, dt))
  in
  let row_off = run_ingest "off" (fun () -> Xfault.uninstall ()) in
  let row_idle =
    run_ingest "armed, idle" (fun () ->
        Xfault.install (Xfault.Injector.create []))
  in
  let row_delayed =
    run_ingest "armed, delayed" (fun () ->
        Xfault.install
          (Xfault.Injector.create
             (List.init 8 (fun i ->
                  {
                    Xfault.at = (i + 1) * 50;
                    on = Xfault.Write;
                    fault = Xfault.Delay 0.0005;
                  }))))
  in
  let shim_rows = [ row_off; row_idle; row_delayed ] in
  (* B: the degrade/recover cycle.  Seed the store, trip ENOSPC on the
     next WAL write, then measure (1) how long the write path is down
     before [try_recover] is called, approximated by the failing insert
     itself; (2) the recovery call — WAL rotation plus a full
     synchronous compaction; (3) query latency while degraded vs
     healthy, since reads must not care. *)
  let degrade_ms, recover_ms, q_healthy_ms, q_degraded_ms =
    with_store_dir "faults-b" (fun dir ->
        let log = Xlog.open_ ~sync_every:1 ~probe_interval:infinity dir in
        Array.iter (fun d -> ignore (Xlog.insert log d : int)) docs;
        let q = "//author" in
        let (_ : int list), t_h = time (fun () -> Xlog.query_xpath log q) in
        Xfault.install
          (Xfault.Injector.create
             [ { Xfault.at = 0; on = Xfault.Write; fault = Xfault.Enospc } ]);
        let (), t_degrade =
          time (fun () ->
              match Xlog.insert log docs.(0) with
              | _ -> failwith "insert should degrade"
              | exception Xlog.Degraded _ -> ())
        in
        Xfault.uninstall ();
        let (_ : int list), t_qd = time (fun () -> Xlog.query_xpath log q) in
        let ok, t_recover = time (fun () -> Xlog.try_recover log) in
        if not ok then failwith "recovery failed in the bench";
        ignore (Xlog.insert log docs.(0) : int);
        Xlog.close log;
        (ms t_degrade, ms t_recover, ms t_h, ms t_qd))
  in
  Printf.printf
    "degrade on ENOSPC: %.3f ms; recover (rotate + compact %d docs): %.1f \
     ms; query healthy %.3f ms vs degraded %.3f ms\n%!"
    degrade_ms n recover_ms q_healthy_ms q_degraded_ms;
  write_json "faults" (fun oc ->
      Printf.fprintf oc "{\n  \"records\": %d,\n  \"shim_overhead\": [\n" n;
      List.iteri
        (fun i (label, rate, dt) ->
          Printf.fprintf oc
            "    {\"shim\": %S, \"inserts_per_s\": %.0f, \"wall_ms\": %.1f}%s\n"
            label rate (ms dt)
            (if i = List.length shim_rows - 1 then "" else ","))
        shim_rows;
      Printf.fprintf oc
        "  ],\n\
        \  \"degrade_recover\": {\"degrade_ms\": %.3f, \"recover_ms\": %.1f, \
         \"query_healthy_ms\": %.3f, \"query_degraded_ms\": %.3f}\n}\n"
        degrade_ms recover_ms q_healthy_ms q_degraded_ms)

(* ------------------------------------------------------------------ *)
(* Shard: K-shard hash-routed ingest and scatter-gather queries.       *)
(* ------------------------------------------------------------------ *)

let shard_bench () =
  header
    "Shard: K-shard hash-routed ingest + scatter-gather batched queries\n\
     per-shard WALs and compactions are independent; speedups depend on \
     available cores (see BENCH_shard.json)";
  let cores = Domain.recommended_domain_count () in
  let n = env_int "XSEQ_BENCH_RECORDS" (n_scaled 4_000) in
  let n_queries = env_int "XSEQ_BENCH_QUERIES" 200 in
  let params = { Syn.l = 3; f = 5; a = 25; i = 10; p = 40 } in
  let docs = Syn.dataset params n in
  let queries =
    Array.of_list
      (queries_of_length ~value_prob:0.5 docs ~qlen:5 ~count:n_queries ~seed:9)
  in
  Printf.printf "(%d records, %d queries, %d recommended domains)\n" n
    (Array.length queries) cores;
  Printf.printf "%8s %14s %14s %16s %12s %10s\n" "shards" "ingest (ms)"
    "inserts/s" "batch (ms)" "queries/s" "answers";
  let base_counts = ref [||] in
  let shard_counts = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun k ->
        with_store_dir (Printf.sprintf "shard-%d" k) (fun dir ->
            (* sync_every 64 keeps the measurement about routing and
               per-shard parallelism, not fsync latency (the ingest
               bench owns that axis). *)
            let sh =
              Xshard.open_ ~shards:k ~sync_every:64 ~domains:cores dir
            in
            Fun.protect
              ~finally:(fun () -> Xshard.close sh)
              (fun () ->
                let ids, t_ingest =
                  time (fun () ->
                      let ids = Xshard.insert_batch sh docs in
                      Xshard.flush sh;
                      ids)
                in
                assert (Array.length ids = n);
                let answers, t_batch =
                  time (fun () -> Xshard.query_batch sh queries)
                in
                (* Ids differ across shard counts by construction; the
                   per-query answer cardinalities must not. *)
                let counts = Array.map List.length answers in
                let answers_ok =
                  if k = 1 then begin
                    base_counts := counts;
                    true
                  end
                  else counts = !base_counts
                in
                if not answers_ok then
                  Printf.printf "!! %d-shard answers diverge from 1-shard\n" k;
                let ips =
                  if t_ingest > 0. then float_of_int n /. t_ingest else 0.
                in
                let qps =
                  if t_batch > 0. then
                    float_of_int (Array.length queries) /. t_batch
                  else 0.
                in
                Printf.printf "%8d %14.1f %14.0f %16.1f %12.0f %10b\n%!" k
                  (ms t_ingest) ips (ms t_batch) qps answers_ok;
                (k, t_ingest, ips, t_batch, qps, answers_ok))))
      shard_counts
  in
  let find k =
    let _, i, _, q, _, _ = List.find (fun (d, _, _, _, _, _) -> d = k) rows in
    (i, q)
  in
  let i1, q1 = find 1 and i4, q4 = find 4 in
  let ingest_speedup = if i4 > 0. then i1 /. i4 else 0. in
  let query_speedup = if q4 > 0. then q1 /. q4 else 0. in
  Printf.printf "speedup 4 vs 1 shards: ingest %.2fx, query batch %.2fx\n%!"
    ingest_speedup query_speedup;
  write_json "shard" (fun oc ->
      Printf.fprintf oc
        "{\n  \"cores\": %d,\n  \"records\": %d,\n  \"queries\": %d,\n" cores n
        (Array.length queries);
      Printf.fprintf oc "  \"runs\": [\n";
      List.iteri
        (fun i (k, t_ingest, ips, t_batch, qps, answers_ok) ->
          Printf.fprintf oc
            "    {\"shards\": %d, \"ingest_ms\": %.2f, \"inserts_per_s\": \
             %.0f, \"query_batch_ms\": %.2f, \"queries_per_s\": %.0f, \
             \"answers_ok\": %b}%s\n"
            k (ms t_ingest) ips (ms t_batch) qps answers_ok
            (if i = List.length rows - 1 then "" else ","))
        rows;
      Printf.fprintf oc "  ],\n";
      Printf.fprintf oc "  \"ingest_speedup_4v1\": %.3f,\n" ingest_speedup;
      Printf.fprintf oc "  \"query_speedup_4v1\": %.3f\n}\n" query_speedup)

(* ------------------------------------------------------------------ *)
(* Replication: WAL shipping lag under sustained ingest, and follower  *)
(* read throughput against the primary's — the two numbers a follower  *)
(* deployment buys or costs (see BENCH_repl.json).                     *)
(* ------------------------------------------------------------------ *)

let repl_bench () =
  header
    "Replication: shipping lag under ingest, catch-up time, follower \
     read throughput vs the primary (see BENCH_repl.json)";
  let n = env_int "XSEQ_BENCH_RECORDS" (n_scaled 4_000) in
  let n_queries =
    env_int "XSEQ_BENCH_REQUESTS" (max 200 (int_of_float (2_000. *. !scale)))
  in
  let cores = Domain.recommended_domain_count () in
  let docs = Xdatagen.Dblp_gen.generate n in
  let xpaths = [| "//author"; "//title"; "/article/author" |] in
  with_store_dir "repl-p" (fun pdir ->
      with_store_dir "repl-f" (fun fdir ->
          let sock name =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "xseq_bench_repl_%s_%d.sock" name (Unix.getpid ()))
          in
          let sock_p = sock "p" and sock_f = sock "f" in
          let ep_p = "unix:" ^ sock_p and ep_f = "unix:" ^ sock_f in
          let start dir sock_path ep follow =
            let log = Xlog.open_ ~sync_every:8 ~memtable_limit:256 dir in
            let node =
              Xrepl.Node.create
                { Xrepl.Node.default_config with advertise = ep; follow }
                log
            in
            let config =
              {
                Xserver.Server.default_config with
                workers = 2;
                repl = Some (Xrepl.Node.hooks node);
              }
            in
            let srv = Xserver.Server.create ~config (Xserver.Server.Live log) in
            Xserver.Server.start srv [ Xserver.Server.Unix_sock sock_path ];
            Xrepl.Node.start node;
            (log, node, srv)
          in
          let plog, pnode, psrv = start pdir sock_p ep_p None in
          let flog, fnode, fsrv = start fdir sock_f ep_f (Some ep_p) in
          Fun.protect
            ~finally:(fun () ->
              Xrepl.Node.stop fnode;
              Xrepl.Node.stop pnode;
              Xserver.Server.stop fsrv;
              Xserver.Server.stop psrv;
              Xlog.close flog;
              Xlog.close plog;
              List.iter
                (fun s -> try Sys.remove s with Sys_error _ -> ())
                [ sock_p; sock_f ])
            (fun () ->
              (* A: ingest everything on the primary while the follower
                 streams; sample the byte lag as we go, then time how
                 long the follower needs to drain to the primary's
                 durable end once the ingest stops. *)
              let lag_samples = ref [] in
              let sample_every = max 1 (n / 64) in
              let (), ingest_dt =
                time (fun () ->
                    Array.iteri
                      (fun i d ->
                        ignore (Xlog.insert plog d : int);
                        if i mod sample_every = 0 then begin
                          let p = Xlog.wal_position plog
                          and f = Xlog.wal_durable_position flog in
                          (* byte lag is only well-defined within one
                             WAL file; cross-file samples (rotation in
                             flight) are skipped *)
                          if p.Xlog.Wal.file = f.Xlog.Wal.file then
                            lag_samples :=
                              max 0 (p.Xlog.Wal.off - f.Xlog.Wal.off)
                              :: !lag_samples
                        end)
                      docs;
                    Xlog.sync plog)
              in
              let target = Xlog.wal_durable_position plog in
              let (), catchup_dt =
                time (fun () ->
                    let rec wait () =
                      if
                        Xlog.Wal.position_compare
                          (Xlog.wal_durable_position flog)
                          target
                        < 0
                      then begin
                        Thread.delay 0.002;
                        wait ()
                      end
                    in
                    wait ())
              in
              let ingest_rps =
                if ingest_dt > 0. then float_of_int n /. ingest_dt else 0.
              in
              let lag = Array.of_list !lag_samples in
              let lag_mean =
                if Array.length lag = 0 then 0.
                else
                  float_of_int (Array.fold_left ( + ) 0 lag)
                  /. float_of_int (Array.length lag)
              in
              let lag_max = Array.fold_left max 0 lag in
              Printf.printf
                "ingest %.0f records/s with a live subscriber; shipping lag \
                 mean %.0f bytes, max %d bytes; catch-up after ingest %.1f \
                 ms\n\
                 %!"
                ingest_rps lag_mean lag_max (ms catchup_dt);
              (* B: identical closed-loop read sweeps against each node.
                 The follower serves its replica of the same store, so
                 the ratio is the cost of reading behind replication —
                 the number the follower-reads feature sells. *)
              let offline = Array.map (fun q -> Xlog.query_xpath plog q) xpaths in
              let read_sweep sock_path =
                let ok = ref true in
                let lats = Array.make n_queries 0. in
                let (), dt =
                  time (fun () ->
                      Xserver.Client.with_connection
                        (Xserver.Server.Unix_sock sock_path)
                        (fun c ->
                          for k = 0 to n_queries - 1 do
                            let qi = k mod Array.length xpaths in
                            let q0 = Unix.gettimeofday () in
                            let ids = Xserver.Client.query c xpaths.(qi) in
                            lats.(k) <- Unix.gettimeofday () -. q0;
                            if ids <> offline.(qi) then ok := false
                          done))
                in
                Array.sort compare lats;
                let rps =
                  if dt > 0. then float_of_int n_queries /. dt else 0.
                in
                (rps, ms (percentile lats 0.50), ms (percentile lats 0.95), !ok)
              in
              let p_rps, p_p50, p_p95, p_ok = read_sweep sock_p in
              let f_rps, f_p50, f_p95, f_ok = read_sweep sock_f in
              let ratio = if p_rps > 0. then f_rps /. p_rps else 0. in
              let answers_ok = p_ok && f_ok in
              Printf.printf
                "reads: primary %.0f/s (p50 %.3f ms, p95 %.3f ms), follower \
                 %.0f/s (p50 %.3f ms, p95 %.3f ms) -> ratio %.2fx; \
                 answers_ok %b\n\
                 %!"
                p_rps p_p50 p_p95 f_rps f_p50 f_p95 ratio answers_ok;
              write_json "repl" (fun oc ->
                  Printf.fprintf oc
                    "{\n\
                    \  \"cores\": %d,\n\
                    \  \"records\": %d,\n\
                    \  \"requests\": %d,\n\
                    \  \"ingest_rps\": %.0f,\n\
                    \  \"lag_bytes_mean\": %.0f,\n\
                    \  \"lag_bytes_max\": %d,\n\
                    \  \"catchup_ms\": %.1f,\n\
                    \  \"primary_read_rps\": %.0f,\n\
                    \  \"primary_p50_ms\": %.3f,\n\
                    \  \"primary_p95_ms\": %.3f,\n\
                    \  \"follower_read_rps\": %.0f,\n\
                    \  \"follower_p50_ms\": %.3f,\n\
                    \  \"follower_p95_ms\": %.3f,\n\
                    \  \"follower_read_ratio\": %.3f,\n\
                    \  \"runs\": [{\"answers_ok\": %b}],\n\
                    \  \"answers_ok\": %b\n\
                     }\n"
                    cores n n_queries ingest_rps lag_mean lag_max
                    (ms catchup_dt) p_rps p_p50 p_p95 f_rps f_p50 f_p95 ratio
                    answers_ok answers_ok))))

(* ------------------------------------------------------------------ *)
(* Scrub: what continuous anti-entropy re-verification costs the       *)
(* serving workload.  Same mixed ingest+query run twice — background   *)
(* scrubber off, then on at an aggressive cadence — and the wall-time  *)
(* ratio is the overhead the --scrub-interval flag buys into.          *)
(* ------------------------------------------------------------------ *)

let scrub_bench () =
  header
    "Scrub: anti-entropy overhead — mixed ingest+query workload with \
     the background scrubber off vs on (see BENCH_scrub.json)";
  let cores = Domain.recommended_domain_count () in
  let n = n_scaled 1_500 in
  let docs = Xdatagen.Dblp_gen.generate n in
  let xpaths = [| "//author"; "//title"; "/article/author" |] in
  let workload scrub_on =
    with_store_dir
      (if scrub_on then "scrub-on" else "scrub-off")
      (fun dir ->
        let log = Xlog.open_ ~sync_every:8 ~memtable_limit:128 dir in
        (* Seed half and checkpoint, so the scrubber walks a real
           checkpoint + base snapshot + WAL corpus, not an empty dir. *)
        let seed = n / 2 in
        for i = 0 to seed - 1 do
          ignore (Xlog.insert log docs.(i) : int)
        done;
        Xlog.flush log;
        ignore (Xlog.compact ~wait:true log : bool);
        let sc =
          if not scrub_on then None
          else begin
            let sc = Xlog.Scrub.create ~interval:0.01 ~rate_mb_s:32. log in
            Xlog.Scrub.start sc;
            Some sc
          end
        in
        let (), dt =
          time (fun () ->
              for i = seed to n - 1 do
                ignore (Xlog.insert log docs.(i) : int);
                if i mod 16 = 0 then
                  Array.iter
                    (fun q -> ignore (Xlog.query_xpath log q : int list))
                    xpaths
              done;
              Xlog.sync log)
        in
        let passes, errors =
          match sc with
          | None -> (0, 0)
          | Some sc ->
            Xlog.Scrub.stop sc;
            let s = Xlog.Scrub.stats sc in
            (s.Xlog.Scrub.passes, s.Xlog.Scrub.errors_found)
        in
        let oracle = Xseq.build docs in
        let ok =
          Array.for_all
            (fun q ->
              Xlog.query_xpath log q = Xseq.query oracle (Xseq.Xpath.parse q))
            xpaths
        in
        Xlog.close log;
        (dt, passes, errors, ok))
  in
  let dt_off, _, _, ok_off = workload false in
  let dt_on, passes, errors, ok_on = workload true in
  let overhead = if dt_off > 0. then dt_on /. dt_off else 0. in
  let answers_ok = ok_off && ok_on && errors = 0 in
  Printf.printf
    "scrub off %.1f ms, on %.1f ms (%d passes, %d errors) -> overhead \
     %.2fx; answers_ok %b\n\
     %!"
    (ms dt_off) (ms dt_on) passes errors overhead answers_ok;
  write_json "scrub" (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"cores\": %d,\n\
        \  \"records\": %d,\n\
        \  \"wall_ms_scrub_off\": %.1f,\n\
        \  \"wall_ms_scrub_on\": %.1f,\n\
        \  \"scrub_passes\": %d,\n\
        \  \"scrub_errors\": %d,\n\
        \  \"scrub_overhead\": %.3f,\n\
        \  \"runs\": [{\"answers_ok\": %b}],\n\
        \  \"answers_ok\": %b\n\
         }\n"
        cores n (ms dt_off) (ms dt_on) passes errors overhead answers_ok
        answers_ok)

(* ------------------------------------------------------------------ *)
(* Soak verification: engine vs brute-force oracle at bench scale.     *)
(* ------------------------------------------------------------------ *)

let verify () =
  header
    "Verification soak: constraint subsequence matching vs brute-force \
     oracle (wildcards, //, values, identical siblings)";
  let params = { Syn.l = 3; f = 4; a = 25; i = 30; p = 40 } in
  let n = n_scaled 400 in
  let docs = Syn.dataset params n in
  let configs =
    [
      ("probability", Xseq.default_config);
      ( "depth-first",
        { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } } );
      ( "text-mode",
        { Xseq.default_config with value_mode = Sequencing.Encoder.Text } );
    ]
  in
  let opts =
    { Qgen.size = 6; star_prob = 0.25; desc_prob = 0.25; value_prob = 0.5; wide = false }
  in
  let queries = Qgen.generate ~seed:123 ~opts docs (n_scaled 300) in
  let failures = ref 0 and checked = ref 0 in
  List.iter
    (fun (name, config) ->
      let index = Xseq.build ~config docs in
      List.iter
        (fun q ->
          incr checked;
          let got = Xseq.query index q in
          let want = Xquery.Embedding.filter q docs in
          if got <> want then begin
            incr failures;
            Printf.printf "MISMATCH [%s] %s\n" name (Xquery.Pattern.to_string q)
          end)
        queries)
    configs;
  Printf.printf "%d checks across %d configurations: %s\n%!" !checked
    (List.length configs)
    (if !failures = 0 then "all PASS" else Printf.sprintf "%d FAILURES" !failures)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure domain.   *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let params = { Syn.l = 3; f = 5; a = 25; i = 10; p = 40 } in
  let docs = Syn.dataset params 2_000 in
  let stats = Xschema.Stats.of_documents_array docs in
  let symbols = Xschema.Stats.symbols stats in
  let strategy = Xschema.Stats.strategy stats in
  let index = Xseq.build docs in
  let xmark = Xdatagen.Xmark_gen.generate ~identical_siblings:true 2_000 in
  let xmark_index = Xseq.build xmark in
  let dblp = Xdatagen.Dblp_gen.generate 2_000 in
  let dblp_index = Xseq.build dblp in
  let dg = Xbaseline.Dataguide.build dblp in
  let vist = Xbaseline.Vist.build docs in
  let q_syn = List.hd (queries_of_length docs ~qlen:5 ~count:1 ~seed:5) in
  let q1 =
    Xseq.Xpath.parse
      (Printf.sprintf
         "/site//item[location='United States']/mail/date[text='%s']"
         Xdatagen.Xmark_gen.q1_date)
  in
  let q_dblp = Xseq.Xpath.parse "/book[key='Maier']/author" in
  let tests =
    [
      (* Figure 14: the cost of sequencing one document. *)
      Test.make ~name:"fig14-encode-constraint"
        (Staged.stage
           (let scratch = Sequencing.Encoder.create_scratch () in
            fun () ->
              Sequencing.Encoder.encode ~scratch ~strategy symbols docs.(0)));
      Test.make ~name:"fig14-encode-depth-first"
        (Staged.stage
           (let scratch = Sequencing.Encoder.create_scratch () in
            fun () ->
              Sequencing.Encoder.encode ~scratch
                ~strategy:Sequencing.Strategy.Depth_first symbols docs.(0)));
      (* Figure 15 / Tables 5-6: labelling one document's sequence. *)
      Test.make ~name:"table5-label"
        (Staged.stage
           (let seqs = [| Sequencing.Encoder.encode ~strategy symbols docs.(0) |] in
            fun () -> Xindex.Labeled.build symbols seqs));
      (* Table 7: one XMark query end to end. *)
      Test.make ~name:"table7-Q1"
        (Staged.stage (fun () -> Xseq.query xmark_index q1));
      (* Table 8: CS vs the DataGuide baseline on one query. *)
      Test.make ~name:"table8-CS"
        (Staged.stage (fun () -> Xseq.query dblp_index q_dblp));
      Test.make ~name:"table8-dataguide"
        (Staged.stage (fun () -> Xbaseline.Dataguide.query dg q_dblp));
      (* Figure 16: CS vs ViST on a random twig. *)
      Test.make ~name:"fig16-CS" (Staged.stage (fun () -> Xseq.query index q_syn));
      Test.make ~name:"fig16-ViST"
        (Staged.stage (fun () -> Xbaseline.Vist.query vist q_syn));
    ]
  in
  let grouped = Test.make_grouped ~name:"xseq" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw_results = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw_results in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-32s %14.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig14a", fig14a);
    ("fig14b", fig14b);
    ("fig15", fig15);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("fig16a", fig16a);
    ("fig16b", fig16b);
    ("fig16c", fig16c);
    ("fig16d", fig16d);
    ("ablation-sampling", ablation_sampling);
    ("ablation-weights", ablation_weights);
    ("ablation-buffer", ablation_buffer);
    ("scorecard", scorecard);
    ("ablation-bulk", ablation_bulk);
    ("ablation-valuemode", ablation_valuemode);
    ("load", load_bench);
    ("parallel", parallel);
    ("shard", shard_bench);
    ("storage", storage);
    ("server", server_bench);
    ("ingest", ingest_bench);
    ("faults", faults_bench);
    ("repl", repl_bench);
    ("scrub", scrub_bench);
    ("verify", verify);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse selected = function
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse selected rest
    | name :: rest when List.mem_assoc name experiments ->
      parse (name :: selected) rest
    | [] -> List.rev selected
    | junk :: _ ->
      Printf.eprintf "unknown argument %S; experiments: %s\n" junk
        (String.concat " " (List.map fst experiments));
      exit 2
  in
  let selected = parse [] args in
  let to_run = if selected = [] then List.map fst experiments else selected in
  Printf.printf "xseq benchmark harness (scale %.2f)\n" !scale;
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> (List.assoc name experiments) ()) to_run;
  Printf.printf "\ntotal: %.1f s\n" (Unix.gettimeofday () -. t0)
