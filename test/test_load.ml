(* Loading a snapshot without materialising its records: the [gbest]
   statistics come from the index's document table, the records are
   decoded from the index only on demand (once, across domains), a load
   neither leaks its store on failure nor allocates the records. *)

module T = Xmlcore.Xml_tree
module Symtab = Sequencing.Symtab
module Path = Symtab.Path
module D = Symtab.Designator
module Stats = Xschema.Stats
module Labeled = Xindex.Labeled
module Store = Xstorage.Store

let with_temp_file f =
  let path = Filename.temp_file "xseq_load" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The modes a snapshot in container [c] opens in: only an xseqcol2
   file pages. *)
let modes = function
  | Containers.Col1 -> [ Store.Resident ]
  | Containers.Plain | Containers.Compressed -> [ Store.Resident; Store.Paged ]

let containers = Containers.[ Plain; Compressed; Col1 ]

(* What saving an index loaded from container [c] writes: xseqcol1 is
   no longer written. *)
let resave_as = function
  | Containers.Col1 -> Containers.Plain
  | c -> c

(* --- statistics oracle ---------------------------------------------------- *)

type corpus = Synthetic | Dblp | Xmark | Dblp_text

let corpus_name = function
  | Synthetic -> "synthetic"
  | Dblp -> "dblp"
  | Xmark -> "xmark"
  | Dblp_text -> "dblp/text"

let corpus kind seed =
  match kind with
  | Synthetic ->
    (* 40% identical siblings: paths repeat within a record, so a link
       holds nested entries that must not be double-counted. *)
    Xdatagen.Synthetic.dataset ~schema_seed:seed ~data_seed:seed
      { Xdatagen.Synthetic.l = 4; f = 4; a = 30; i = 40; p = 30 }
      60
  | Dblp | Dblp_text -> Xdatagen.Dblp_gen.generate ~seed 120
  | Xmark -> Xdatagen.Xmark_gen.generate ~seed ~identical_siblings:true 60

let value_mode = function
  | Dblp_text -> Sequencing.Encoder.Text
  | Synthetic | Dblp | Xmark -> Sequencing.Encoder.Hashed

(* Every path of the index dictionary: epsilon and the link paths. *)
let dictionary_paths labeled =
  let symbols = Labeled.symbols labeled in
  Path.epsilon
  :: List.filter
       (fun p -> Labeled.link labeled p <> None)
       (List.init (Symtab.path_count symbols) (Path.of_int symbols))

(* The path of [dst] spelled like [p] of [src]: ids are table-local. *)
let rec translate src dst p =
  if Path.equal p Path.epsilon then Some Path.epsilon
  else
    Option.bind (translate src dst (Path.parent src p)) (fun parent ->
        let d = Path.tag src p in
        let find = if D.is_value src d then D.find_value else D.find_tag in
        Option.bind (find dst (D.name src d)) (Path.find_child dst parent))

let same_stats ~what labeled reference derived =
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) what in
  if Stats.doc_count derived <> Stats.doc_count reference then
    fail "doc count %d, records say %d" (Stats.doc_count derived)
      (Stats.doc_count reference);
  if Stats.distinct_paths derived <> Stats.distinct_paths reference then
    fail "%d distinct paths, records say %d" (Stats.distinct_paths derived)
      (Stats.distinct_paths reference);
  let symbols = Labeled.symbols labeled in
  List.iter
    (fun p ->
      let name = Path.to_string symbols p in
      match translate symbols (Stats.symbols reference) p with
      | None -> fail "%s is not a path of the records" name
      | Some q ->
        let want = Stats.p_root reference q and got = Stats.p_root derived p in
        if not (Float.equal want got) then
          fail "p_root %s = %g, records say %g" name got want)
    (dictionary_paths labeled);
  true

(* A reloaded index's statistics equal the ones counted over its records,
   for the full model and for a 30% sample. *)
let prop_stats_from_index (kind, seed) =
  let docs = corpus kind seed in
  let value_mode = value_mode kind in
  with_temp_file (fun path ->
      List.for_all
        (fun (label, sample_fraction, reference) ->
          let config =
            {
              Xseq.default_config with
              value_mode;
              sample_fraction;
              sample_seed = seed;
            }
          in
          Xseq.save (Xseq.build ~config docs) path;
          let loaded = Xseq.load path in
          same_stats
            ~what:(Printf.sprintf "%s seed %d %s" (corpus_name kind) seed label)
            (Xseq.labeled loaded) (Lazy.force reference)
            (Option.get (Xseq.stats loaded)))
        [
          ("full", 1.0, lazy (Stats.of_documents_array ~value_mode docs));
          ( "sampled",
            0.3,
            lazy
              ((* Every record's paths, as in a build; the sample counts. *)
               let symbols = Symtab.create () in
               Array.iter
                 (fun d ->
                   ignore (Sequencing.Encoder.paths_of_tree ~value_mode symbols d))
                 docs;
               Stats.sample ~value_mode ~symbols ~fraction:0.3 ~seed docs) );
        ])

let stats_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:24 ~name:"index-derived stats = record stats"
       QCheck.(
         pair (oneofl [ Synthetic; Dblp; Xmark; Dblp_text ]) (int_bound 10_000))
       prop_stats_from_index)

(* Compiled query sequences of a reload equal the built index's, in every
   container and storage mode: the same paths, by name (ids are each
   index's own), in the same order, with the same pattern parents. *)
let test_compiled_sequences () =
  let docs = Xdatagen.Xmark_gen.generate ~seed:7 ~identical_siblings:true 150 in
  let index = Xseq.build docs in
  let opts =
    {
      Xdatagen.Query_gen.default_opts with
      size = 4;
      star_prob = 0.2;
      desc_prob = 0.2;
    }
  in
  let queries = Xdatagen.Query_gen.generate ~seed:11 ~opts docs 40 in
  let compile t q =
    match
      Xquery.Engine.compile ~strategy:(Xseq.strategy t)
        ~value_mode:(Xseq.value_mode t) (Xseq.labeled t) q
    with
    | plans ->
      let spell (c : Xquery.Query_seq.compiled) =
        (Array.map (Path.to_string (Xseq.symbols t)) c.paths, c.parents)
      in
      Ok (List.sort compare (List.map spell plans))
    | exception Xquery.Instantiate.Too_many n -> Error n
  in
  let want = List.map (compile index) queries in
  with_temp_file (fun path ->
      List.iter
        (fun format ->
          Containers.save format index path;
          List.iter
            (fun mode ->
              let loaded = Xseq.load ~mode path in
              List.iter2
                (fun q w ->
                  if compile loaded q <> w then
                    Alcotest.failf "%s %s: %s compiles differently"
                      (Containers.name format)
                      (match mode with
                       | Store.Resident -> "resident"
                       | Store.Paged -> "paged")
                      (Xquery.Pattern.to_string q))
                queries want;
              Option.iter Store.close (Xseq.backing_store loaded))
            (modes format))
        containers)

(* --- one symbol table per index -------------------------------------------- *)

(* Three records whose [zeta] and [alpha] siblings tie on priority: every
   record has both.  The build interns [zeta] first, so both its
   sequences and its stored dictionary put [zeta] before [alpha]. *)
let zeta_first =
  [|
    "<r><zeta>1</zeta><alpha>2</alpha></r>";
    "<r><zeta>3</zeta><alpha>4</alpha></r>";
    "<r><zeta>5</zeta><alpha>6</alpha></r>";
  |]

let cross_index_configs =
  [
    ("default", Xseq.default_config);
    ( "depth-first/canonical",
      {
        Xseq.default_config with
        sequencing = Xseq.Depth_first { canonical = true };
      } );
  ]

(* The snapshots are written by another process, as a server's
   [--reload] target is, so the loading process's own history of names
   (here: [alpha] before [zeta]) differs from the build's. *)
let cross_index_snapshots =
  lazy
    (let files =
       List.concat_map
         (fun (name, _) ->
           List.map
             (fun format ->
               ( (name, format),
                 Filename.temp_file "xseq_cross" ".xseq" ))
             containers)
         cross_index_configs
     in
     at_exit (fun () ->
         List.iter (fun (_, f) -> try Sys.remove f with Sys_error _ -> ()) files);
     (match Unix.fork () with
      | 0 ->
        let code =
          match
            List.iter
              (fun ((name, format), file) ->
                let config = List.assoc name cross_index_configs in
                let docs = Array.map Xmlcore.Xml_parser.parse_string zeta_first in
                Containers.save format (Xseq.build ~config docs) file)
              files
          with
          | () -> 0
          | exception _ -> 1
        in
        Unix._exit code
      | pid ->
        (match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ()
         | _ -> Alcotest.fail "snapshot writer failed"));
     files)

(* An index answers from its own names, whatever else the process has
   seen: here an index over [alpha]-first records (default strategy) or
   a parse of [alpha] before [zeta] (canonical depth-first, which sorts
   siblings by name) precedes the load. *)
let test_cross_index name () =
  let files = Lazy.force cross_index_snapshots in
  (match name with
   | "default" ->
     ignore
       (Xseq.build
          [| Xmlcore.Xml_parser.parse_string "<r><alpha>2</alpha><zeta>1</zeta></r>" |])
   | _ -> ignore (Xmlcore.Xml_parser.parse_string "<x><alpha/><zeta/></x>"));
  let query = Xseq.Xpath.parse "/r[zeta='1'][alpha='2']" in
  let want =
    Xquery.Embedding.filter query
      (Array.map Xmlcore.Xml_parser.parse_string zeta_first)
  in
  Alcotest.(check (list int)) "brute force" [ 0 ] want;
  let answers =
    List.map
      (fun format ->
        let loaded = Xseq.load (List.assoc (name, format) files) in
        (Containers.name format, Xseq.query loaded query))
      containers
  in
  Alcotest.(check (list (pair string (list int))))
    name
    (List.map (fun (format, _) -> (format, want)) answers)
    answers

(* Priority ties across depths: [text] (depth 3) is met before
   [location] (depth 2) when the build interns, but a loaded index
   numbers its paths by depth.  Sequencing breaks ties on depth first,
   so the reload sequences queries as the build sequenced records. *)
let test_cross_depth_ties () =
  let docs =
    Array.map Xmlcore.Xml_parser.parse_string
      [|
        "<item><description><text>a</text></description><location>US</location></item>";
        "<item><description><text>b</text></description><location>EU</location></item>";
      |]
  in
  let query = Xseq.Xpath.parse "/item[location]/description/text" in
  let want = Xquery.Embedding.filter query docs in
  Alcotest.(check (list int)) "brute force" [ 0; 1 ] want;
  let index = Xseq.build docs in
  Alcotest.(check (list int)) "built" want (Xseq.query index query);
  with_temp_file (fun path ->
      Xseq.save index path;
      Alcotest.(check (list int)) "loaded" want (Xseq.query (Xseq.load path) query))

(* Snapshots written by [xseq index --compress] before snapshot version
   2, when sequencing used process-wide tag and path ids:
   [v1_depth_first.xseq] ([--strategy depth-first], canonical) over
   [zeta_first], and [v1_probability.xseq] (the default strategy) over
   the two records of [test_cross_depth_ties].  Read under today's
   rules, the first answers the zeta/alpha query with nothing; a load
   re-sequences both from their records, and [built_under] marks their
   files for rewriting. *)
let v1_snapshots =
  let data = Filename.concat (Filename.dirname Sys.executable_name) "data" in
  List.map
    (fun (file, config, xpath) -> (Filename.concat data file, config, xpath))
  [
    ( "v1_depth_first.xseq",
      { Xseq.default_config with sequencing = Depth_first { canonical = true } },
      "/r[zeta='1'][alpha='2']" );
    ( "v1_probability.xseq",
      Xseq.default_config,
      "/item[location]/description/text" );
  ]

let test_v1_snapshots () =
  List.iter
    (fun (file, config, xpath) ->
      let query = Xseq.Xpath.parse xpath in
      let check what index =
        let docs = Array.init (Xseq.doc_count index) (Xseq.document index) in
        let want = Xquery.Embedding.filter query docs in
        if want = [] then Alcotest.failf "%s: %s matches no record" file xpath;
        Alcotest.(check (list int)) (file ^ ", " ^ what) want
          (Xseq.query index query)
      in
      List.iter
        (fun mode ->
          let loaded = Xseq.load ~mode file in
          check "loaded" loaded;
          Alcotest.(check bool) (file ^ " is settled") false
            (Xseq.built_under loaded config);
          Alcotest.(check bool) "no backing store" true
            (Xseq.backing_store loaded = None);
          with_temp_file (fun path ->
              Xseq.save ~compress:true loaded path;
              let again = Xseq.load ~mode path in
              check "rewritten" again;
              Alcotest.(check bool) (file ^ " rewritten is settled") true
                (Xseq.built_under again config)))
        [ Store.Resident; Store.Paged ])
    v1_snapshots

(* Version-2 snapshots written by [xseq index] (and [--compress]) over
   the 200 DBLP records of [v2_dblp.xml], before the per-node columns
   and the stored link offsets were retired: they carry [node_pre],
   [node_post], [node_path], [l_node] and [link_off], which a load
   ignores and a save no longer writes. *)
let retired_regions =
  [ "node_pre"; "node_post"; "node_path"; "l_node"; "link_off" ]

let v2_snapshots =
  let data = Filename.concat (Filename.dirname Sys.executable_name) "data" in
  List.map (Filename.concat data)
    [ "v2_dblp.xseq"; "v2_dblp_compressed.xseq" ]

let has_regions file names =
  let s = Store.open_file file in
  Fun.protect
    ~finally:(fun () -> Store.close s)
    (fun () -> List.filter (Store.mem s) names)

let test_v2_snapshots () =
  List.iter
    (fun file ->
      Alcotest.(check (list string)) (file ^ " has the retired regions")
        retired_regions (has_regions file retired_regions);
      let resident = Xseq.load file in
      let docs =
        Array.init (Xseq.doc_count resident) (Xseq.document resident)
      in
      let fresh = Xseq.build docs in
      let opts =
        { Xdatagen.Query_gen.default_opts with size = 4; value_prob = 0.5 }
      in
      let queries = Xdatagen.Query_gen.generate ~seed:9 ~opts docs 24 in
      List.iter
        (fun mode ->
          let loaded = Xseq.load ~mode file in
          List.iter
            (fun q ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s %s" file (Xquery.Pattern.to_string q))
                (Xseq.query fresh q) (Xseq.query loaded q))
            queries;
          with_temp_file (fun path ->
              Containers.save (resave_as (Containers.of_file file)) loaded path;
              Alcotest.(check (list string)) (file ^ " re-saved without them")
                [] (has_regions path retired_regions));
          Option.iter Store.close (Xseq.backing_store loaded))
        (modes (Containers.of_file file)))
    v2_snapshots

let snapshot_version file =
  let s = Store.open_file file in
  Fun.protect
    ~finally:(fun () -> Store.close s)
    (fun () -> (Store.int_array s "xseq_meta").(0))

(* Saving a loaded version-2 snapshot writes version 4: no record
   region at all, and the re-saved file gives the same records, decoded
   from its index, and answers, resident and paged. *)
let test_v2_resaved_as_v4 () =
  List.iter
    (fun file ->
      Alcotest.(check int) (file ^ " is version 2") 2 (snapshot_version file);
      let original = Xseq.load file in
      let docs =
        Array.init (Xseq.doc_count original) (Xseq.document original)
      in
      let opts =
        { Xdatagen.Query_gen.default_opts with size = 4; value_prob = 0.5 }
      in
      let queries = Xdatagen.Query_gen.generate ~seed:9 ~opts docs 24 in
      List.iter
        (fun mode ->
          let loaded = Xseq.load ~mode file in
          with_temp_file (fun path ->
              Containers.save (resave_as (Containers.of_file file)) loaded path;
              Alcotest.(check int) (file ^ " re-saved as version 4") 4
                (snapshot_version path);
              Alcotest.(check (list string))
                (file ^ " re-saved without a record region") []
                (has_regions path [ "docs" ]);
              let again = Xseq.load ~mode path in
              Array.iteri
                (fun i d ->
                  if not (T.equal d (Xseq.document again i)) then
                    Alcotest.failf "%s: record %d differs once re-saved" file i)
                docs;
              List.iter
                (fun q ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s re-saved, %s" file
                       (Xquery.Pattern.to_string q))
                    (Xseq.query original q) (Xseq.query again q))
                queries;
              Option.iter Store.close (Xseq.backing_store again));
          Option.iter Store.close (Xseq.backing_store loaded))
        (modes (Containers.of_file file));
      Option.iter Store.close (Xseq.backing_store original))
    v2_snapshots

(* --- records on demand ---------------------------------------------------- *)

(* Four wildcard branches over DBLP's record fields expand past the
   instantiation limit, so the query takes the scan fallback. *)
let exploding = Xseq.Xpath.parse "/*[*][*][*][*]"

let test_decode_race () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:5 300 in
  let index = Xseq.build docs in
  (match
     Xquery.Engine.compile ~strategy:(Xseq.strategy index)
       ~value_mode:(Xseq.value_mode index) (Xseq.labeled index) exploding
   with
   | _ -> Alcotest.fail "the fallback query no longer explodes"
   | exception Xquery.Instantiate.Too_many _ -> ());
  let want = Xquery.Embedding.filter exploding docs in
  with_temp_file (fun path ->
      Xseq.save index path;
      for _trial = 1 to 5 do
        let loaded = Xseq.load path in
        let ready = Atomic.make 0 in
        let racers =
          List.init 4 (fun k ->
              Domain.spawn (fun () ->
                  Atomic.incr ready;
                  while Atomic.get ready < 4 do
                    Domain.cpu_relax ()
                  done;
                  let all () =
                    Array.init (Array.length docs) (Xseq.document loaded)
                  in
                  if k mod 2 = 0 then begin
                    let ids = Xseq.query loaded exploding in
                    (ids, all ())
                  end
                  else begin
                    let seen = all () in
                    (Xseq.query loaded exploding, seen)
                  end))
        in
        let results = List.map Domain.join racers in
        let _, first = List.hd results in
        List.iter
          (fun (ids, seen) ->
            Alcotest.(check (list int)) "fallback answers" want ids;
            Array.iteri
              (fun i d ->
                if d != first.(i) then
                  Alcotest.failf "record %d decoded more than once" i)
              seen)
          results;
        Array.iteri
          (fun i d ->
            if not (T.equal d docs.(i)) then
              Alcotest.failf "record %d differs" i)
          first
      done)

(* Saving a loaded index whose records were never decoded writes its
   regions back verbatim: the file is reproduced byte for byte. *)
let test_save_verbatim () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:3 200 in
  let index = Xseq.build docs in
  with_temp_file (fun original ->
      with_temp_file (fun copy ->
          List.iter
            (fun format ->
              Containers.save format index original;
              List.iter
                (fun mode ->
                  let loaded = Xseq.load ~mode original in
                  Containers.save format loaded copy;
                  Option.iter Store.close (Xseq.backing_store loaded);
                  Alcotest.(check bool)
                    (Containers.name format ^ " reproduced")
                    true
                    (String.equal (read_file original) (read_file copy)))
                (modes format))
            containers))

let live_words () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The scan fallback rebuilds the records from the index once and
   keeps them, as [document] does: once the query is over, what it left
   live is the records and the paged index's own working set (its
   64-page buffer pool and decoded-block caches, 6,000 words measured
   when the fallback kept nothing), not the sweep's columns or the
   sequences it decoded the records from. *)
let fallback_word_bound = 20_000

(* A snapshot of [docs] in a fresh file, and the answer to [exploding]
   over them.  The records are garbage once it returns, so they do not
   die inside a measurement. *)
let snapshot_of ?compress docs =
  let path = Filename.temp_file "xseq_load" ".idx" in
  Xseq.save ?compress (Xseq.build docs) path;
  (path, Xquery.Embedding.filter exploding docs)

let test_fallback_keeps_records () =
  let path, want =
    snapshot_of ~compress:true (Xdatagen.Dblp_gen.generate ~seed:5 2000)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let loaded = Xseq.load ~mode:Store.Paged ~pool_pages:64 path in
      let before = live_words () in
      let ids = Xseq.query loaded exploding in
      let grown = live_words () - before in
      Alcotest.(check (list int)) "fallback answers" want ids;
      let records =
        Obj.reachable_words
          (Obj.repr (Array.init (Xseq.doc_count loaded) (Xseq.document loaded)))
      in
      Option.iter Store.close (Xseq.backing_store loaded);
      if grown > records + fallback_word_bound then
        Alcotest.failf
          "the fallback left %d words live (records %d, bound %d more)" grown
          records fallback_word_bound)

(* The descriptor outlives the path: an index still reads its records,
   for [document] and for the scan fallback, after its file is
   unlinked. *)
let test_records_outlive_the_file () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:5 300 in
  let want = Xquery.Embedding.filter exploding docs in
  List.iter
    (fun (format, mode) ->
      let path = Filename.temp_file "xseq_unlinked" ".idx" in
      Containers.save format (Xseq.build docs) path;
      let loaded = Xseq.load ~mode path in
      Sys.remove path;
      let what =
        Printf.sprintf "%s %s" (Containers.name format)
          (match mode with
           | Store.Paged -> "paged"
           | Store.Resident -> "resident")
      in
      Alcotest.(check (list int)) (what ^ ": fallback") want
        (Xseq.query loaded exploding);
      Array.iteri
        (fun i d ->
          if not (T.equal d (Xseq.document loaded i)) then
            Alcotest.failf "%s: record %d differs" what i)
        docs;
      Option.iter Store.close (Xseq.backing_store loaded))
    Containers.
      [
        (Col1, Store.Resident);
        (Plain, Store.Resident);
        (Plain, Store.Paged);
        (Compressed, Store.Resident);
        (Compressed, Store.Paged);
      ]

(* --- legacy layout -------------------------------------------------------- *)

(* Snapshots written before the simulated page model was retired carry
   [meta = [| n; doc_base; total_bytes |]] and a [link_base] region after
   [link_len]: the page-aligned byte offsets of every link and of the
   document table in that model.  Their xseqcol1 dictionaries spell
   every entry's designator out: [dict_kind], [dict_name_off] and
   [dict_names] in place of the compact [dict_desig], [desig_kind] and
   [desig_names].  Such files are snapshot version 3 or older, with a
   record region.  [write_legacy] rebuilds exactly that layout through
   [Store.memory] from the regions of a current snapshot. *)
let compact_dictionary = [ "dict_desig"; "desig_kind"; "desig_names" ]

let add_spelled_dictionary legacy src =
  let desig = Store.int_array src "dict_desig"
  and kind = Store.int_array src "desig_kind" in
  let blob, off =
    Xsuccinct.Frontcode.decode ~name:"desig_names" (Store.blob src "desig_names")
  in
  let n = Array.length desig in
  let names = Buffer.create 1024 and name_off = Array.make (n + 1) 0 in
  let kinds =
    Array.mapi
      (fun i d ->
        name_off.(i) <- Buffer.length names;
        if d < 0 then 0
        else begin
          let at = Xutil.I32.get off d in
          Buffer.add_substring names blob at (Xutil.I32.get off (d + 1) - at);
          kind.(d)
        end)
      desig
  in
  name_off.(n) <- Buffer.length names;
  Store.add_int_array legacy "dict_kind" kinds;
  Store.add_int_array legacy "dict_name_off" name_off;
  Store.add_blob legacy "dict_names" (Buffer.contents names)

let write_legacy ~format ~docs index path =
  with_temp_file (fun current ->
      Containers.save format index current;
      let src = Store.open_file current in
      let next = ref 0 in
      let alloc entries =
        let base = !next in
        next := base + ((max 1 (8 * entries) + 4095) / 4096 * 4096);
        base
      in
      let link_base =
        Array.map alloc (Store.to_array (Store.ints src "link_len"))
      in
      let doc_base = alloc (Store.length (Store.ints src "doc_pre")) in
      let legacy = Store.memory () in
      List.iter
        (fun r ->
          match (r.Store.r_name, r.Store.r_kind) with
          | "meta", _ ->
            let n = (Store.to_array (Store.ints src "meta")).(0) in
            Store.add_int_array legacy "meta" [| n; doc_base; !next |]
          | "link_len", _ ->
            Store.add_ints legacy "link_len" (Store.ints src "link_len");
            Store.add_int_array legacy "link_base" link_base
          | "xseq_meta", _ ->
            let m = Store.int_array src "xseq_meta" in
            m.(0) <- 3;
            Store.add_int_array legacy "xseq_meta" m;
            Store.add_blob legacy "docs"
              (Bytes.to_string (fst (Containers.v3_records docs)))
          | "sibling_order", _ -> ()
          | name, _
            when format = Containers.Col1 && List.mem name compact_dictionary ->
            ()
          | name, `Ints -> Store.add_ints legacy name (Store.ints src name)
          | name, `Blob -> Store.add_blob legacy name (Store.blob src name))
        (Store.regions src);
      if format = Containers.Col1 then add_spelled_dictionary legacy src;
      Containers.write ~page_size:(Store.page_size src) format legacy path;
      Store.close src)

(* A legacy-layout snapshot loads in both formats, and in both modes
   where the format pages, and answers id-for-id like the in-memory
   index; saving it again writes the current layout, the compact
   dictionary included. *)
let test_legacy_layout () =
  let corpora =
    [
      ("dblp", Xdatagen.Dblp_gen.generate ~seed:5 200);
      ( "xmark",
        Xdatagen.Xmark_gen.generate ~seed:5 ~identical_siblings:true 80 );
    ]
  in
  let opts =
    { Xdatagen.Query_gen.default_opts with size = 4; value_prob = 0.5 }
  in
  List.iter
    (fun (name, docs) ->
      let index = Xseq.build docs in
      let queries = Xdatagen.Query_gen.generate ~seed:9 ~opts docs 12 in
      with_temp_file (fun path ->
          List.iter
            (fun format ->
              write_legacy ~format ~docs index path;
              let legacy = Store.open_file path in
              Alcotest.(check bool) "legacy file has link_base" true
                (Store.mem legacy "link_base");
              Alcotest.(check bool) "legacy file spells its dictionary out"
                (format = Containers.Col1)
                (Store.mem legacy "dict_names");
              List.iter
                (fun mode ->
                  let loaded = Xseq.load ~mode path in
                  List.iter
                    (fun q ->
                      Alcotest.(check (list int))
                        (Printf.sprintf "%s %s: %s" name
                           (Containers.name format)
                           (Xquery.Pattern.to_string q))
                        (Xseq.query index q) (Xseq.query loaded q))
                    queries;
                  with_temp_file (fun resaved ->
                      Containers.save (resave_as format) loaded resaved;
                      let s = Store.open_file resaved in
                      Alcotest.(check bool) "re-save drops link_base" false
                        (Store.mem s "link_base");
                      Alcotest.(check int) "re-save writes a 1-field meta" 1
                        (Store.length (Store.ints s "meta"));
                      Alcotest.(check (list bool))
                        "re-save writes the compact dictionary"
                        [ true; false ]
                        (List.map (Store.mem s) [ "dict_desig"; "dict_names" ]);
                      Store.close s);
                  Option.iter Store.close (Xseq.backing_store loaded))
                (modes format))
            containers))
    corpora

(* A current snapshot whose compact dictionary numbers its designators
   in the order the dictionary entries first name them, not in (name,
   kind) order: [dict_desig], [desig_kind] and [desig_names] renumbered,
   the names front-coded with no shared prefixes (the decoder takes any
   order).  Every other region is the current one. *)
let write_first_seen ?records index path =
  with_temp_file (fun current ->
      Xseq.save index current;
      let src = Store.open_file current in
      let desig = Store.int_array src "dict_desig"
      and kind = Store.int_array src "desig_kind" in
      let blob, off =
        Xsuccinct.Frontcode.decode ~name:"desig_names"
          (Store.blob src "desig_names")
      in
      let renumbered = Array.make (Array.length kind) (-1) and seen = ref [] in
      let desig =
        Array.map
          (fun d ->
            if d >= 0 && renumbered.(d) < 0 then begin
              renumbered.(d) <- List.length !seen;
              seen := d :: !seen
            end;
            if d < 0 then d else renumbered.(d))
          desig
      in
      let seen = Array.of_list (List.rev !seen) in
      let names = Buffer.create 1024 in
      Buffer.add_int32_le names (Int32.of_int (Array.length seen));
      Array.iter
        (fun d ->
          let at = Xutil.I32.get off d in
          let len = Xutil.I32.get off (d + 1) - at in
          Xsuccinct.Varint.add_uvarint names 0;
          Xsuccinct.Varint.add_uvarint names len;
          Buffer.add_substring names blob at len)
        seen;
      let unsorted = Store.memory () in
      List.iter
        (fun r ->
          match (r.Store.r_name, r.Store.r_kind) with
          | "dict_desig", _ -> Store.add_int_array unsorted "dict_desig" desig
          | "desig_kind", _ ->
            Store.add_int_array unsorted "desig_kind"
              (Array.map (fun d -> kind.(d)) seen)
          | "desig_names", _ ->
            Store.add_blob unsorted "desig_names" (Buffer.contents names)
          | ("xseq_meta" | "sibling_order"), _ when Option.is_some records ->
            if r.Store.r_name = "xseq_meta" then begin
              let m = Store.int_array src "xseq_meta" in
              m.(0) <- 3;
              Store.add_int_array unsorted "xseq_meta" m;
              Store.add_blob unsorted "docs"
                (Bytes.to_string (Option.get records))
            end
          | name, `Ints -> Store.add_ints unsorted name (Store.ints src name)
          | name, `Blob -> Store.add_blob unsorted name (Store.blob src name))
        (Store.regions src);
      Store.write unsorted path;
      Store.close src)

(* A snapshot with its designators out of (name, kind) order, as saves
   of version 3 wrote them, loads, resident and paged, as an index
   upgraded from its records: it answers id for id like the built index,
   is not settled under its configuration, and once saved again loads as
   it is.  A version-4 snapshot has no records to upgrade from: the same
   dictionary there is refused. *)
let test_first_seen_dictionary () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:5 200 in
  let index = Xseq.build docs in
  let opts =
    { Xdatagen.Query_gen.default_opts with size = 4; value_prob = 0.5 }
  in
  let queries = Xdatagen.Query_gen.generate ~seed:9 ~opts docs 12 in
  let answers what loaded =
    List.iter
      (fun q ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s: %s" what (Xquery.Pattern.to_string q))
          (Xseq.query index q) (Xseq.query loaded q))
      queries
  in
  with_temp_file (fun path ->
      write_first_seen index path;
      (match Xseq.load path with
       | _ -> Alcotest.fail "a version-4 first-seen dictionary loaded"
       | exception Invalid_argument msg ->
         Alcotest.(check string) "version 4 refuses it"
           "Xseq.load: designators out of order" msg);
      write_first_seen ~records:(fst (Containers.v3_records docs)) index path;
      List.iter
        (fun mode ->
          let loaded = Xseq.load ~mode path in
          answers "first-seen dictionary" loaded;
          Alcotest.(check bool) "an upgraded index is not settled" false
            (Xseq.built_under loaded Xseq.default_config);
          Alcotest.(check bool) "an upgraded index is in memory" true
            (Xseq.backing_store loaded = None);
          with_temp_file (fun resaved ->
              Xseq.save loaded resaved;
              let again = Xseq.load ~mode resaved in
              answers "re-saved" again;
              Alcotest.(check bool) "a re-save loads without an upgrade" true
                (Xseq.built_under again Xseq.default_config);
              Option.iter Store.close (Xseq.backing_store again)))
        [ Store.Resident; Store.Paged ])

(* A version-3 snapshot, with the record region saves wrote until
   version 4, in either xseqcol2 container: it loads as an upgraded index
   (its records sequenced again) that gives the same records and
   answers, and saving it again, or [xseq index OLD -o NEW], writes
   version 4 without the region. *)
let test_v3_resaved_as_v4 () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:6 200 in
  let index = Xseq.build docs in
  let opts =
    { Xdatagen.Query_gen.default_opts with size = 4; value_prob = 0.5 }
  in
  let queries = Xdatagen.Query_gen.generate ~seed:9 ~opts docs 12 in
  let same what loaded =
    Invariants.check_documents what loaded docs;
    List.iter
      (fun q ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s: %s" what (Xquery.Pattern.to_string q))
          (Xseq.query index q) (Xseq.query loaded q))
      queries
  in
  let same_file what path =
    let loaded = Xseq.load path in
    same what loaded;
    Option.iter Store.close (Xseq.backing_store loaded)
  in
  let current what path =
    Alcotest.(check int) (what ^ " is version 4") 4 (snapshot_version path);
    Alcotest.(check (list string)) (what ^ " has no record region") []
      (has_regions path [ "docs" ])
  in
  List.iter
    (fun format ->
      with_temp_file (fun old ->
          Containers.save_older ~version:3
            ~records:(fst (Containers.v3_records docs))
            format index old;
          Alcotest.(check int) "written as version 3" 3 (snapshot_version old);
          let loaded = Xseq.load old in
          same (Containers.name format ^ " version 3") loaded;
          Alcotest.(check bool) "an upgraded index is not settled" false
            (Xseq.built_under loaded Xseq.default_config);
          with_temp_file (fun resaved ->
              Xseq.save loaded resaved;
              current "re-saved" resaved;
              same_file "re-saved" resaved);
          if Sys.file_exists Containers.cli then
            with_temp_file (fun rewritten ->
                Alcotest.(check int) "xseq index exits 0" 0
                  (Containers.run_cli [ "index"; old; "-o"; rewritten ]);
                current "rewritten by xseq index" rewritten;
                same_file "rewritten by xseq index" rewritten)))
    Containers.[ Plain; Compressed ]

(* --- failed loads --------------------------------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Checksum-valid files that fail a later check — a malformed
   [xseq_meta], an index region the labelled reader rejects — must close
   the paged store they opened.  Only a current file's index regions
   are read: the second is version 4, with a compact dictionary and an
   empty sibling-order region. *)
let test_failed_loads_close () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else
    with_temp_file (fun path ->
        let bad_files =
          [
            (fun store ->
              Store.add_int_array store "xseq_meta" [| 1; 2; 3 |];
              Store.add_blob store "docs" "");
            (fun store ->
              Store.add_int_array store "xseq_meta"
                [| 4; 3; 0; 0; 0; 0; 42; 0; 0 |];
              Store.add_int_array store "sibling_order" [||];
              Store.add_int_array store "dict_desig" [| -1 |];
              Store.add_int_array store "meta" [| 0; 0 |]);
          ]
        in
        List.iter
          (fun fill ->
            let store = Store.memory () in
            fill store;
            Store.write ~compress:true store path;
            let before = open_fds () in
            for _ = 1 to 500 do
              match Xseq.load ~mode:Store.Paged path with
              | _ -> Alcotest.fail "a malformed snapshot loaded"
              | exception Invalid_argument _ -> ()
            done;
            Alcotest.(check int) "no descriptor leaked" before (open_fds ()))
          bad_files)

(* An xseqcol1 file does not open paged: the open fails naming the
   rewrite that makes it pageable, and closes the file it opened. *)
let test_paged_col1_refused () =
  with_temp_file (fun path ->
      Containers.(save Col1)
        (Xseq.build (Xdatagen.Dblp_gen.generate ~seed:4 20))
        path;
      let refusal =
        Printf.sprintf
          "Store.open_file: an xseqcol1 snapshot cannot be opened paged; \
           rewrite it as xseqcol2 with `xseq index %s -o NEW`"
          path
      in
      let attempt () =
        match Xseq.load ~mode:Store.Paged path with
        | _ -> Alcotest.fail "an xseqcol1 snapshot opened paged"
        | exception Invalid_argument msg ->
          Alcotest.(check string) "the refusal names the fix" refusal msg
      in
      attempt ();
      if Sys.file_exists "/proc/self/fd" then begin
        let before = open_fds () in
        for _ = 1 to 500 do
          attempt ()
        done;
        Alcotest.(check int) "no descriptor leaked" before (open_fds ())
      end)

(* A loaded index keeps its file open until it is dropped: the store's
   finaliser closes the descriptor.  Loading and dropping one snapshot
   over and over keeps the process's descriptors bounded rather than
   growing by one a load, and once the collector has run every dropped
   load's descriptor is closed. *)
let fd_growth_bound = 64

let test_dropped_loads_close () =
  if Sys.file_exists "/proc/self/fd" then
    with_temp_file (fun path ->
        Xseq.save (Xseq.build (Xdatagen.Dblp_gen.generate ~seed:4 20)) path;
        let before = open_fds () in
        let most = ref before in
        for i = 1 to 2000 do
          ignore (Sys.opaque_identity (Xseq.load path));
          if i mod 50 = 0 then most := max !most (open_fds ())
        done;
        if !most - before > fd_growth_bound then
          Alcotest.failf "%d descriptors open during dropped loads (%d before)"
            !most before;
        Gc.full_major ();
        if open_fds () > before then
          Alcotest.failf "%d descriptors open after a collection (%d before)"
            (open_fds ()) before)

(* --- allocation guard ----------------------------------------------------- *)

(* Words allocated so far: the minor heap counted exactly (the minor
   words of [Gc.quick_stat] only move at minor collections), plus what
   went straight to the major heap. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words allocated by a load of a fixed 2,000-record DBLP snapshot,
   measured after a warm-up load; word counts do not depend on the
   machine.  The load, symbol table included, measured 478k words with
   a hashtable symbol table and 332k with the flat one, built at its
   final size from arrays the dictionary regions are read into (300k
   counted exactly).  Reading the directory regions straight into
   32-bit vectors, handing the name blob to the symbol table, ranking
   document serials in blocks and streaming the record check brought it
   to 133k.  Decoding the records as part of it costs about 0.39M more,
   and recounting the statistics over them (as loads once did) brings
   it to 3.9M, so a change that materialises them again fails here. *)
let load_word_bound = 150_000.

let test_load_allocation () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:2024 2000 in
  with_temp_file (fun path ->
      Xseq.save (Xseq.build docs) path;
      ignore (Xseq.load path);
      let before = allocated_words () in
      let loaded = Xseq.load path in
      let words = allocated_words () -. before in
      ignore (Sys.opaque_identity loaded);
      if words > load_word_bound then
        Alcotest.failf "load allocated %.0f words (bound %.0f)" words
          load_word_bound)

(* Live words the same load leaves behind once the collector has run:
   the symbol table, the link directory and the statistics; the label
   columns are flat buffers, outside the heap.  Nothing of the records
   is kept (before version 4 the file's 505k-byte record region stayed
   in it).  Measured 56.0k words
   with a symbol table that loads without hash indexes; 71.6k with its
   two open-addressing indexes, 137k with 64-bit columns and a boxed
   string a name, 171k with a hashtable symbol table, and a store that
   kept its regions in memory retained 252k. *)
let retained_word_bound = 62_000

let test_load_retention () =
  let path, _ = snapshot_of (Xdatagen.Dblp_gen.generate ~seed:2024 2000) in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (Xseq.load path);
      let before = live_words () in
      let loaded = Xseq.load path in
      let words = live_words () - before in
      Option.iter Store.close (Xseq.backing_store loaded);
      if words > retained_word_bound then
        Alcotest.failf "a load retained %d words (bound %d)" words
          retained_word_bound)

(* Words the symbol table of the same loaded index reaches: its name
   and path columns, the runs of each path's children and the
   designator names.  Measured 41.0k words loaded by sorting; 53.4k
   with two open-addressing id indexes and an element-child thread, 97k
   with [int array] columns and a boxed string a name, and the table of
   three hashtables and doubling arrays before that reached 126k. *)
let symtab_word_bound = 45_000

let test_symtab_footprint () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:2024 2000 in
  with_temp_file (fun path ->
      Xseq.save (Xseq.build docs) path;
      let loaded = Xseq.load path in
      let words =
        Obj.reachable_words
          (Obj.repr (Labeled.symbols (Xseq.labeled loaded)))
      in
      Option.iter Store.close (Xseq.backing_store loaded);
      if words > symtab_word_bound then
        Alcotest.failf "a loaded symbol table reaches %d words (bound %d)"
          words symtab_word_bound)

(* Bytes the same loaded index keeps outside the heap: its five flat
   label and document columns, four bytes an element.  Measured 205.5k;
   the 8-byte columns they replaced took twice that. *)
let column_byte_bound = 210_000

let test_column_bytes () =
  let docs = Xdatagen.Dblp_gen.generate ~seed:2024 2000 in
  with_temp_file (fun path ->
      Xseq.save (Xseq.build docs) path;
      let loaded = Xseq.load path in
      let bytes = Labeled.column_bytes (Xseq.labeled loaded) in
      Option.iter Store.close (Xseq.backing_store loaded);
      if bytes > column_byte_bound then
        Alcotest.failf "a loaded index keeps %d column bytes (bound %d)" bytes
          column_byte_bound)

let () =
  Alcotest.run "load"
    [
      ( "symbols",
        List.map
          (fun (name, _) ->
            Alcotest.test_case ("cross-index answers, " ^ name) `Quick
              (test_cross_index name))
          cross_index_configs
        @ [
            Alcotest.test_case "ties across depths survive reloads" `Quick
              test_cross_depth_ties;
          ] );
      ("statistics", [ stats_oracle ]);
      ( "sequences",
        [ Alcotest.test_case "compiled sequences survive reloads" `Quick
            test_compiled_sequences ] );
      ( "records",
        [
          Alcotest.test_case "one decode across racing domains" `Quick
            test_decode_race;
          Alcotest.test_case "save of an undecoded load is verbatim" `Quick
            test_save_verbatim;
          Alcotest.test_case "the scan fallback keeps only records" `Quick
            test_fallback_keeps_records;
          Alcotest.test_case "records outlive their file" `Quick
            test_records_outlive_the_file;
        ] );
      ( "legacy",
        [
          Alcotest.test_case "page-layout snapshots load" `Quick
            test_legacy_layout;
          Alcotest.test_case "first-seen dictionaries upgrade" `Quick
            test_first_seen_dictionary;
          Alcotest.test_case "version-1 snapshots re-sequence" `Quick
            test_v1_snapshots;
          Alcotest.test_case "version-2 snapshots with node columns load"
            `Quick test_v2_snapshots;
          Alcotest.test_case "version-2 snapshots re-save as version 4" `Quick
            test_v2_resaved_as_v4;
          Alcotest.test_case "version-3 snapshots re-save as version 4" `Quick
            test_v3_resaved_as_v4;
        ] );
      ( "failures",
        [
          Alcotest.test_case "dropped loads close their file" `Quick
            test_dropped_loads_close;
          Alcotest.test_case "failed paged loads close their store" `Quick
            test_failed_loads_close;
          Alcotest.test_case "xseqcol1 paged loads are refused" `Quick
            test_paged_col1_refused;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "load allocates no records" `Quick
            test_load_allocation;
          Alcotest.test_case "a load retains no regions" `Quick
            test_load_retention;
          Alcotest.test_case "a loaded symbol table is flat" `Quick
            test_symtab_footprint;
          Alcotest.test_case "label columns are 32-bit" `Quick
            test_column_bytes;
        ] );
    ]
