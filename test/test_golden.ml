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
   columns: loaded resident (flat buffers) or paged (packed columns),
   and from an xseqcol1 file, the container earlier builds wrote. *)

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

(* (corpus, config, plain digest, compressed digest).  The compressed
   digests are those of the xseqcol2 files every earlier build wrote
   with [--compress]; the plain ones were pinned when the plain writer
   stopped writing xseqcol1 (packed columns, raw blobs). *)
let golden =
  [
    (Dblp, "probability",
      "decf596eee8c0fbb70233b7f29814abb", "c05c1728d74ca28a0dc84bd49b1c395e");
    (Dblp, "probability/sample 0.3",
      "0b2ff516f04aa965a6656535949747e7", "1a76d3fc14d61bd893b5b99bb9543db5");
    (Dblp, "depth-first",
      "0080581a5072cedc238ec3eb66ebebc1", "4f0f6884f915bb6a9fd092f221663732");
    (Dblp, "depth-first/canonical",
      "ec7ded8b05a56e163cd329edd2e1c922", "009aff6e9a5a05bcc43331173b6fc161");
    (Dblp, "breadth-first",
      "4fccc992e43e43382d5a6f801737f809", "91e5867ef82f418616aa1e7d31d2571d");
    (Dblp, "breadth-first/canonical",
      "19910f58cc69bf0419b686684bfdab4a", "5512cd49ed52a51a08b0dfe19c460e40");
    (Dblp, "random",
      "b9d74c8fedeef730bdb05a80cc7c2587", "c9a00417e6a93419abc7266b0ad9cff7");
    (Dblp, "text",
      "4f8e747b3d5be75ab7fd3b0df536a1d9", "37b170256abd41f80679d6856b5dd06a");
    (Xmark, "probability",
      "2810b8f6d311faf98e82e3a1bf02158f", "d28f121d9bcf646a1a150606a3e1cbf9");
    (Xmark, "probability/sample 0.3",
      "7b1b6da106028169ff061063ea505326", "006dc44a8f284dc7b202b6150ad2948c");
    (Xmark, "depth-first",
      "7f9d3ff7a2088adc68da703080a18845", "96c8dd52803a1831b6d4473a0ce1f267");
    (Xmark, "depth-first/canonical",
      "f51c6a78bde6d485c7cff8d409be7956", "7603077c9cf01e7ca36cfc306d9dce64");
    (Xmark, "breadth-first",
      "6b6c2678b25656c3545f276996f8ba5b", "dc31b99c9530b5601ac4e01bda4a9eb1");
    (Xmark, "breadth-first/canonical",
      "626fcd365c61a033f4666252335e9019", "9b1d02b915cc4b492241677e572f16e4");
    (Xmark, "random",
      "e0905a7d07a59ea1ea3fe44904f2311e", "644459fa496dc1d956625eb96acfed3e");
    (Xmark, "text",
      "cfff637b51748280817e865db0c58105", "37143fdabe3af8806ebecc8c926278cf");
    (Dblp_text, "probability",
      "decf596eee8c0fbb70233b7f29814abb", "c05c1728d74ca28a0dc84bd49b1c395e");
    (Xmark_text, "probability",
      "2810b8f6d311faf98e82e3a1bf02158f", "d28f121d9bcf646a1a150606a3e1cbf9");
    (Mixed_text, "probability",
      "0cd1e5a5ab2c89e7545eccd72186f106", "f15d3b92f11f8249d6518c0d04e40910");
    (Mixed_text, "depth-first/canonical",
      "5dc01ecfc9241d3aad797bc46eaa48de", "d5c4ec00cee8796136caeb808f690308");
    (Mixed_text, "text",
      "4a43589693b374525bc2c6743aba8607", "875dde6fb0dbc50970ee607cbb9ac469");
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
    (Col1, Xstorage.Store.Resident, Plain);
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
  let plain = temp () and compressed = temp () and col1 = temp () in
  let resaved = temp () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ plain; compressed; col1; resaved ])
    (fun () ->
      let index = Xseq.build ~config (generate corpus) in
      Containers.save Plain index plain;
      Containers.save Compressed index compressed;
      Containers.save Col1 index col1;
      let hex f = Digest.to_hex (Digest.file f) in
      let resave (from, mode, kind) =
        let loaded =
          Xseq.load ~mode
            (match from with
             | Containers.Plain -> plain
             | Containers.Compressed -> compressed
             | Containers.Col1 -> col1)
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
            | Containers.Col1 -> Alcotest.fail "no xseqcol1 digest is pinned"
          in
          if digest <> want then
            Alcotest.failf "(%s, %S): %s gives %s, not the pinned %s"
              (corpus_name corpus) name (resave_name resave) digest want)
        resaves got)
    golden

let () =
  Alcotest.run "golden"
    [
      ( "snapshots",
        [
          Alcotest.test_case "save digests, both formats" `Quick test_digests;
        ] );
    ]
