(* Golden snapshot digests.  The MD5 of [Xseq.save]'s output — plain
   and compressed — over fixed-seed DBLP and XMark corpora, under every
   persisted sequencing configuration.  Labels, link order, dictionary
   order and the document table all follow from the order in which a
   build interns designators and paths into its symbol table, so any
   change to that order, to the sequencing, or to the labelling shows up
   here as a changed digest, as does a new snapshot version.

   Every build owns its symbol table, so a digest depends on nothing but
   the (corpus, config) pair: all pairs are built in one process, once
   in list order and once reversed, and must give the same digests both
   times.  A snapshot loaded and saved again must give the pinned
   digest of the kind it is saved as, whatever backs the loaded
   columns: loaded resident (flat buffers) or paged (packed columns). *)

(* [Dblp_text] and [Xmark_text] are the same records printed as XML and
   read back through [Xml_parser.parse_fragments]; [Mixed_text] is XML
   text dense in what the generators never write (references, CDATA,
   comments, processing instructions, blank runs, either quote), so the
   parser is under the same pins as the build. *)
type corpus = Dblp | Xmark | Dblp_text | Xmark_text | Mixed_text

let corpus_name = function
  | Dblp -> "dblp"
  | Xmark -> "xmark"
  | Dblp_text -> "dblp text"
  | Xmark_text -> "xmark text"
  | Mixed_text -> "mixed text"

let mixed_text n =
  let b = Buffer.create 8192 in
  for i = 0 to n - 1 do
    Printf.bprintf b "<rec id=\"%d&amp;%d\" k='&quot;%d&apos;'>\n  " i (i mod 7)
      (i mod 5);
    Printf.bprintf b "<t>a &lt; b &amp; c%d&gt;</t><!-- note %d -->" (i mod 11) i;
    if i mod 3 = 0 then
      Printf.bprintf b "<c><![CDATA[x<y & z%d]]]></c>\n" (i mod 4);
    if i mod 5 = 0 then Buffer.add_string b "<n>&#x41;&#66;&#233;&#x20AC;</n>";
    if i mod 7 = 0 then Buffer.add_string b "<e a='1' b=\"2\"/>";
    Printf.bprintf b "<?pi %d?><v>%d<!-- split -->%d</v>  \n</rec>\n" i (i mod 13)
      (i mod 3)
  done;
  Buffer.contents b

let parse_text s = Array.of_list (Xmlcore.Xml_parser.parse_fragments s)

let print_records docs =
  String.concat "\n"
    (Array.to_list (Array.map (Xmlcore.Xml_printer.to_string ~indent:false) docs))

let rec generate = function
  | Dblp -> Xdatagen.Dblp_gen.generate ~seed:11 300
  | Xmark -> Xdatagen.Xmark_gen.generate ~seed:5 ~identical_siblings:true 120
  | Dblp_text -> parse_text (print_records (generate Dblp))
  | Xmark_text -> parse_text (print_records (generate Xmark))
  | Mixed_text -> parse_text (mixed_text 200)

let configs =
  let c = Xseq.default_config in
  [
    ("probability", c);
    ( "probability/sample 0.3",
      { c with sample_fraction = 0.3; sample_seed = 7 } );
    ( "depth-first",
      { c with sequencing = Xseq.Depth_first { canonical = false } } );
    ( "depth-first/canonical",
      { c with sequencing = Xseq.Depth_first { canonical = true } } );
    ( "breadth-first",
      { c with sequencing = Xseq.Breadth_first { canonical = false } } );
    ( "breadth-first/canonical",
      { c with sequencing = Xseq.Breadth_first { canonical = true } } );
    ("random", { c with sequencing = Xseq.Random 3 });
    ("text", { c with value_mode = Sequencing.Encoder.Text });
  ]

(* (corpus, config, plain digest, compressed digest).  Pinned when
   snapshots became version 5: the dictionary in build id order and the
   link slots in dictionary order, no [link_path] or [link_multi] (the
   nesting flag is [link_len]'s low bit), spans in [l_span] for
   [l_post], and [l_up] for the nesting links only. *)
let golden =
  [
    (Dblp, "probability",
      "1b06b9a8067c4c5577c66d84ffacf5f8", "defd07df5dd1d23aff2238abae8555ee");
    (Dblp, "probability/sample 0.3",
      "c15ad45e10e713ed1165f6da053ae37d", "05dc90bae8da5cd9f58e2d1ac4f28ebc");
    (Dblp, "depth-first",
      "d1aa3ef2145dc52004f4ea4a2ffcb095", "4fb66f39f19d38abe5e821d78884d75e");
    (Dblp, "depth-first/canonical",
      "2c57f0ae0848a99589237fa4852416c3", "9d53da8775070beda6a999c0ba4bdd2a");
    (Dblp, "breadth-first",
      "b367dbdbfce2519b2bea4a7a83b04ccd", "38c272dadb11b85c508ffdd89de0b25b");
    (Dblp, "breadth-first/canonical",
      "7902d2e358ec6e57442356eef2ce56e3", "cf92efc8ced8d8443d33bf49002f5563");
    (Dblp, "random",
      "7c9e6718629a7cabbc873eb160d48e11", "c5b70f08777cf1354f488254108c509d");
    (Dblp, "text",
      "9e63f62bb20739c2562eb48b0fee15e9", "9e63f62bb20739c2562eb48b0fee15e9");
    (Xmark, "probability",
      "f04b6d42839f9c9ecb3f315efb451b72", "19f7f7b3cf015ff19492ce2444a33704");
    (Xmark, "probability/sample 0.3",
      "f8d1353b30ac7aac73a8595e7ce4af0c", "d11f3e2f0390e7af7db079e33014883f");
    (Xmark, "depth-first",
      "81a12ab17a9fd145ebfac64830330261", "995a7a6d062777eb1c4176256d32f0f4");
    (Xmark, "depth-first/canonical",
      "033c19f487f5492a3877093af1aed414", "134966d7424ce0af0b6c7fffac8ac367");
    (Xmark, "breadth-first",
      "a669fc81856da88873f78568131f333e", "a8dc9663fab6fce0b5754214f7a0cda2");
    (Xmark, "breadth-first/canonical",
      "d7d33867d9ae2cd6092bfec561e725a8", "b97be83cdc242999602abb00d6c99fd0");
    (Xmark, "random",
      "a4ffb55e8acfa85d4e6b1ede07aef4a2", "d3b2d9c6580a171a99a6280b4916d2c2");
    (Xmark, "text",
      "206124a01b96569407950c5984fb7c88", "89611bfb3a648bea21cb011f9bb9aa1f");
    (Dblp_text, "probability",
      "1b06b9a8067c4c5577c66d84ffacf5f8", "defd07df5dd1d23aff2238abae8555ee");
    (Xmark_text, "probability",
      "f04b6d42839f9c9ecb3f315efb451b72", "19f7f7b3cf015ff19492ce2444a33704");
    (Mixed_text, "probability",
      "f8ee7e4b44966fd1640122eafc473ed9", "bd198ec369782f0021a38f84120acfb0");
    (Mixed_text, "depth-first/canonical",
      "b99b243e319cfbe341c9bb4a1fd9fe8e", "8ce42f330f275cb7d9b60d33e215ab5b");
    (Mixed_text, "text",
      "a8cc0a3f8d3a2cb2829b1ffe6c804ece", "a8cc0a3f8d3a2cb2829b1ffe6c804ece");
  ]

(* The re-saves checked, as (container loaded, load mode, container
   saved). *)
let resaves =
  let open Containers in
  [
    (Plain, Xstorage.Store.Resident, Plain);
    (Plain, Xstorage.Store.Resident, Compressed);
    (Plain, Xstorage.Store.Paged, Plain);
    (Compressed, Xstorage.Store.Resident, Compressed);
    (Compressed, Xstorage.Store.Paged, Compressed);
    (Compressed, Xstorage.Store.Paged, Plain);
  ]

let resave_name (from, mode, kind) =
  Printf.sprintf "the %s snapshot loaded %s and re-saved %s"
    (Containers.name from)
    (match mode with
     | Xstorage.Store.Resident -> "resident"
     | Xstorage.Store.Paged -> "paged")
    (Containers.name kind)

(* The plain and compressed digests of a build, and the digest of each
   of [resaves]. *)
let digests corpus config =
  let temp () = Filename.temp_file "xseq_golden" ".xseq" in
  let plain = temp () and compressed = temp () in
  let resaved = temp () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ plain; compressed; resaved ])
    (fun () ->
      let index = Xseq.build ~config (generate corpus) in
      Containers.save Plain index plain;
      Containers.save Compressed index compressed;
      let hex f = Digest.to_hex (Digest.file f) in
      let resave (from, mode, kind) =
        let loaded =
          Xseq.load ~mode
            (match from with
             | Containers.Plain -> plain
             | Containers.Compressed -> compressed)
        in
        Containers.save kind loaded resaved;
        Option.iter Xstorage.Store.close (Xseq.backing_store loaded);
        hex resaved
      in
      ((hex plain, hex compressed), List.map resave resaves))

let test_digests () =
  let run pairs =
    List.map
      (fun (corpus, name, _, _) ->
        ((corpus, name), digests corpus (List.assoc name configs)))
      pairs
  in
  let forward = run golden in
  let backward = run (List.rev golden) in
  List.iter
    (fun (pair, got) ->
      if List.assoc pair backward <> got then
        Alcotest.failf "(%s, %S) depends on the build order"
          (corpus_name (fst pair)) (snd pair))
    forward;
  let mismatches =
    List.filter_map
      (fun (corpus, name, want1, want2) ->
        let (got1, got2), _ = List.assoc (corpus, name) forward in
        if got1 = want1 && got2 = want2 then None
        else
          Some
            (Printf.sprintf "(%s, %S, %S, %S)"
               (String.capitalize_ascii (corpus_name corpus))
               name got1 got2))
      golden
  in
  if mismatches <> [] then
    Alcotest.failf "snapshot digests changed; now:\n%s"
      (String.concat ";\n" mismatches);
  List.iter
    (fun (corpus, name, want1, want2) ->
      let _, got = List.assoc (corpus, name) forward in
      List.iter2
        (fun ((_, _, kind) as resave) digest ->
          let want =
            match kind with
            | Containers.Plain -> want1
            | Containers.Compressed -> want2
          in
          if digest <> want then
            Alcotest.failf "(%s, %S): %s gives %s, not the pinned %s"
              (corpus_name corpus) name (resave_name resave) digest want)
        resaves got)
    golden

(* --- documents from the index (Theorem 1) ------------------------------- *)

(* Four wildcard branches expand past the instantiation limit, so the
   query takes the scan fallback over the decoded records. *)
let exploding = Xseq.Xpath.parse "/*[*][*][*][*]"

(* Every configuration above under both value modes. *)
let roundtrip_configs =
  List.concat_map
    (fun (name, (c : Xseq.config)) ->
      if c.value_mode = Sequencing.Encoder.Text then [ (name, c) ]
      else
        [
          (name, c);
          ( name ^ "/text",
            { c with value_mode = Sequencing.Encoder.Text } );
        ])
    configs

(* The records an index decodes are the ones it was built from, [T.equal],
   on every golden corpus under every configuration: built, loaded
   resident from a plain snapshot, paged from a compressed one, and as
   the base of an [Xlog] store after a compaction (which decodes its
   segments' records) and again once reopened.  The scan fallback
   answers as the brute-force oracle does over the records. *)
let test_documents_roundtrip () =
  let temp () = Filename.temp_file "xseq_roundtrip" ".xseq" in
  List.iter
    (fun corpus ->
      let docs = generate corpus in
      let want = Xquery.Embedding.filter exploding docs in
      List.iter
        (fun (name, config) ->
          let what = Printf.sprintf "%s, %s" (corpus_name corpus) name in
          let fallback how index =
            match config.Xseq.sequencing with
            | Xseq.Random _ -> ()
            | _ ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s %s: fallback answers" what how)
                want
                (Xseq.query index exploding)
          in
          let index = Xseq.build ~config docs in
          Invariants.check_documents (what ^ " built") index docs;
          fallback "built" index;
          let plain = temp () and compressed = temp () in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun f -> try Sys.remove f with Sys_error _ -> ())
                [ plain; compressed ])
            (fun () ->
              Xseq.save index plain;
              Xseq.save ~compress:true index compressed;
              let resident = Xseq.load plain in
              Invariants.check_documents (what ^ " plain resident") resident
                docs;
              fallback "plain resident" resident;
              Option.iter Xstorage.Store.close (Xseq.backing_store resident);
              let paged =
                Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages:16 compressed
              in
              Invariants.check_documents (what ^ " compressed paged") paged
                docs;
              fallback "compressed paged" paged;
              Option.iter Xstorage.Store.close (Xseq.backing_store paged));
          let dir = Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "xseq-roundtrip-%d" (Unix.getpid ())) in
          let rec rm_rf p =
            if Sys.file_exists p then
              if Sys.is_directory p then begin
                Array.iter
                  (fun n -> rm_rf (Filename.concat p n))
                  (Sys.readdir p);
                Sys.rmdir p
              end
              else Sys.remove p
          in
          rm_rf dir;
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let stored = Array.append docs [| docs.(0) |] in
              let log = Xlog.open_ ~sync_every:0 ~config dir in
              ignore (Xlog.seed log docs : int array);
              ignore (Xlog.insert log docs.(0) : int);
              ignore (Xlog.compact ~wait:true log : bool);
              let base log =
                match Xlog.base log with
                | Some b -> b
                | None -> Alcotest.failf "%s: no base" what
              in
              Invariants.check_documents (what ^ " compacted") (base log)
                stored;
              Xlog.close log;
              let log = Xlog.open_ ~sync_every:0 ~config dir in
              Invariants.check_documents (what ^ " reopened") (base log) stored;
              Xlog.close log))
        roundtrip_configs)
    [ Dblp; Xmark; Dblp_text; Xmark_text; Mixed_text ]

(* --- links by path id ----------------------------------------------------- *)

module Labeled = Xindex.Labeled
module Path = Sequencing.Symtab.Path

(* Path [id]'s link in [l], entry by entry: (pre, span, up, whether the
   entry has a same-path descendant); [None] if [l] has no such link. *)
let link_entries l id =
  let p = Path.of_int (Labeled.symbols l) id in
  Option.map
    (fun k ->
      List.init (Labeled.link_length k) (fun i ->
          let pre = Labeled.link_pre k i and span = Labeled.link_span k i in
          ( pre,
            span,
            Labeled.link_up k i,
            Labeled.link_same_desc k i ~post:(pre + span) )))
    (Labeled.link l p)

(* A path's id names its link, in a built index and in its reloads
   alike.  On every golden (corpus, configuration) pair, every path of
   the built table has a link, and the plain snapshot loaded resident and
   the compressed one loaded paged hold the same links under the same
   ids, with the same nesting, compared by id alone. *)
let test_links_by_id () =
  let temp () = Filename.temp_file "xseq_links" ".xseq" in
  let plain = temp () and compressed = temp () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ plain; compressed ])
    (fun () ->
      List.iter
        (fun (corpus, name, _, _) ->
          let what = Printf.sprintf "%s, %s" (corpus_name corpus) name in
          let index =
            Xseq.build ~config:(List.assoc name configs) (generate corpus)
          in
          Containers.save Plain index plain;
          Containers.save Compressed index compressed;
          let built = Xseq.labeled index in
          let width = Sequencing.Symtab.path_count (Labeled.symbols built) in
          for id = 1 to width - 1 do
            if link_entries built id = None then
              Alcotest.failf "%s: built path %d has no link" what id
          done;
          List.iter
            (fun (how, loaded) ->
              let l = Xseq.labeled loaded in
              Alcotest.(check int)
                (Printf.sprintf "%s %s: paths" what how)
                width
                (Sequencing.Symtab.path_count (Labeled.symbols l));
              for id = 0 to width - 1 do
                if link_entries built id <> link_entries l id then
                  Alcotest.failf "%s %s: path %d's link differs" what how id;
                let multiple l =
                  Labeled.path_multiple l (Path.of_int (Labeled.symbols l) id)
                in
                if multiple built <> multiple l then
                  Alcotest.failf "%s %s: path %d's multiplicity differs" what
                    how id
              done;
              Option.iter Xstorage.Store.close (Xseq.backing_store loaded))
            [
              ("plain resident", Xseq.load plain);
              ( "compressed paged",
                Xseq.load ~mode:Xstorage.Store.Paged ~pool_pages:16 compressed
              );
            ])
        golden)

let () =
  Alcotest.run "golden"
    [
      ( "snapshots",
        [
          Alcotest.test_case "save digests, both formats" `Quick test_digests;
          Alcotest.test_case "documents round-trip" `Quick
            test_documents_roundtrip;
          Alcotest.test_case "links by path id, built and loaded" `Quick
            test_links_by_id;
        ] );
    ]
