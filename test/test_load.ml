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

let containers = Containers.[ Plain; Compressed ]

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
            [ Store.Resident; Store.Paged ])
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
   [location] (depth 2) when the build interns.  Sequencing breaks ties
   on depth first, then path id, and a loaded index keeps its build's
   id order, so the reload sequences queries as the build sequenced
   records. *)
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
                [ Store.Resident; Store.Paged ])
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
        (Plain, Store.Resident);
        (Plain, Store.Paged);
        (Compressed, Store.Resident);
        (Compressed, Store.Paged);
      ]

(* A current snapshot whose compact dictionary numbers its designators
   in the order the dictionary entries first name them, not in (name,
   kind) order: [dict_desig], [desig_kind] and [desig_names] renumbered,
   the names front-coded with no shared prefixes (sound bytes, out of
   order).  Every other region is the current one. *)
let write_first_seen index path =
  with_temp_file (fun current ->
      Xseq.save index current;
      let src = Store.open_file current in
      let desig = Store.int_array src "dict_desig"
      and kind = Store.int_array src "desig_kind" in
      let coded =
        Xsuccinct.Frontcode.read ~name:"desig_names" ~rank:(Array.get kind)
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
          let name = Xsuccinct.Frontcode.name coded d in
          Xsuccinct.Varint.add_uvarint names 0;
          Xsuccinct.Varint.add_uvarint names (String.length name);
          Buffer.add_string names name)
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
          | name, `Ints -> Store.add_ints unsorted name (Store.ints src name)
          | name, `Blob -> Store.add_blob unsorted name (Store.blob src name))
        (Store.regions src);
      Store.write unsorted path;
      Store.close src)

(* A snapshot with its designators out of (name, kind) order, as saves
   before version 4 wrote them, is refused: a load numbers designators by
   their rank in the table and checks that order rather than sorting. *)
let test_first_seen_dictionary () =
  let index = Xseq.build (Xdatagen.Dblp_gen.generate ~seed:5 200) in
  with_temp_file (fun path ->
      write_first_seen index path;
      List.iter
        (fun mode ->
          match Xseq.load ~mode path with
          | _ -> Alcotest.fail "a first-seen dictionary loaded"
          | exception Invalid_argument msg ->
            Alcotest.(check string) "the load refuses it"
              "Labeled.of_store: inconsistent snapshot: designators out of \
               order"
              msg)
        [ Store.Resident; Store.Paged ])

(* --- failed loads --------------------------------------------------------- *)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Checksum-valid files that fail a later check — a malformed
   [xseq_meta], an index region the labelled reader rejects — must close
   the paged store they opened.  Only a current file's index regions
   are read: both name version 5, the second with an empty
   sibling-order region. *)
let test_failed_loads_close () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else
    with_temp_file (fun path ->
        let bad_files =
          [
            (fun store ->
              Store.add_int_array store "xseq_meta" [| 5; 2; 3 |]);
            (fun store ->
              Store.add_int_array store "xseq_meta"
                [| 5; 3; 0; 0; 0; 0; 42; 0; 0 |];
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

(* An xseqcol1 file, the container of older builds, is not read: the
   open fails naming the rebuild, and closes the file it opened. *)
let test_paged_col1_refused () =
  with_temp_file (fun path ->
      Xseq.save (Xseq.build (Xdatagen.Dblp_gen.generate ~seed:4 20)) path;
      Containers.stamp_col1 path;
      let refusal =
        "Store.open_file: an xseqcol1 snapshot of older builds is not read; "
        ^ Store.rebuild_remedy
      in
      let attempt () =
        match Xseq.load ~mode:Store.Paged path with
        | _ -> Alcotest.fail "an xseqcol1 snapshot opened"
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

(* A snapshot of any version but the current one is refused, resident
   and paged, with one diagnostic naming its version and the rebuild,
   and [xseq query] and [xseq info] exit 1 on it.  Each file is a current snapshot
   whose [xseq_meta] names an older version: the version is the first
   thing a load reads. *)
let test_older_versions_refused () =
  let index = Xseq.build (Xdatagen.Dblp_gen.generate ~seed:4 20) in
  with_temp_file (fun current ->
      Xseq.save index current;
      let src = Store.open_file current in
      let current_version = (Store.int_array src "xseq_meta").(0) in
      for version = 1 to current_version - 1 do
        with_temp_file (fun path ->
            let older = Store.memory () in
            List.iter
              (fun r ->
                match (r.Store.r_name, r.Store.r_kind) with
                | "xseq_meta", _ ->
                  let m = Store.int_array src "xseq_meta" in
                  m.(0) <- version;
                  Store.add_int_array older "xseq_meta" m
                | name, `Ints -> Store.add_ints older name (Store.ints src name)
                | name, `Blob -> Store.add_blob older name (Store.blob src name))
              (Store.regions src);
            Store.write older path;
            let refusal =
              Printf.sprintf
                "Xseq.load: snapshot version %d is not read (this build \
                 reads version %d); %s"
                version current_version Store.rebuild_remedy
            in
            List.iter
              (fun mode ->
                match Xseq.load ~mode path with
                | _ -> Alcotest.failf "a version-%d snapshot loaded" version
                | exception Invalid_argument msg ->
                  Alcotest.(check string) "the refusal names the rebuild"
                    refusal msg)
              [ Store.Resident; Store.Paged ];
            if Sys.file_exists Containers.cli then begin
              Alcotest.(check int) "xseq query exits 1" 1
                (Containers.run_cli [ "query"; path; "//author" ]);
              Alcotest.(check int) "xseq info exits 1" 1
                (Containers.run_cli [ "info"; path ])
            end)
      done;
      Store.close src)

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
   to 133k, and keeping the designator names front-coded (no copy of
   them spelled out, the kinds read into bytes, the frequencies counted
   into the statistics' own array) to 63.5k.  Decoding the records as
   part of it costs about 0.39M more, and recounting the statistics over
   them (as loads once did) brings it to 3.9M, so a change that
   materialises them again fails here. *)
let load_word_bound = 70_000.

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
   in it).  Measured 42.0k words with the designator names kept
   front-coded, 56.0k with them spelled out in one blob and a symbol
   table that loads without hash indexes; 71.6k with its
   two open-addressing indexes, 137k with 64-bit columns and a boxed
   string a name, 171k with a hashtable symbol table, and a store that
   kept its regions in memory retained 252k. *)
let retained_word_bound = 46_000

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
   designator names.  Measured 30.9k words with the names front-coded
   as the file stores them, 41.0k with them spelled out; 53.4k
   with two open-addressing id indexes and an element-child thread, 97k
   with [int array] columns and a boxed string a name, and the table of
   three hashtables and doubling arrays before that reached 126k. *)
let symtab_word_bound = 34_000

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
      ( "failures",
        [
          Alcotest.test_case "dropped loads close their file" `Quick
            test_dropped_loads_close;
          Alcotest.test_case "failed paged loads close their store" `Quick
            test_failed_loads_close;
          Alcotest.test_case "xseqcol1 paged loads are refused" `Quick
            test_paged_col1_refused;
          Alcotest.test_case "older snapshot versions are refused" `Quick
            test_older_versions_refused;
          Alcotest.test_case "first-seen dictionaries are refused" `Quick
            test_first_seen_dictionary;
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
