(* Golden snapshot digests.  The MD5 of [Xseq.save]'s output — both
   formats — over fixed-seed DBLP and XMark corpora, under every
   persisted sequencing configuration.  Labels, link order, dictionary
   order and the document table all follow from the order in which a
   build interns designators and paths into its symbol table, so any
   change to that order, to the sequencing, or to the labelling shows up
   here as a changed digest, as does a new snapshot version.

   Every build owns its symbol table, so a digest depends on nothing but
   the (corpus, config) pair: all pairs are built in one process, once
   in list order and once reversed, and must give the same digests both
   times.  A snapshot loaded and saved again must give the pinned
   digest of the format it is saved in, whatever backs the loaded
   columns: an xseqcol1 snapshot loaded resident (flat buffers) and
   saved as xseqcol2 — the 32-bit elements xseqcol1 writes lose nothing
   the compressed form keeps — or loaded paged and saved as xseqcol1,
   and an xseqcol2 snapshot loaded resident or paged (compressed
   columns) and saved as xseqcol2. *)

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

(* (corpus, config, Col1 digest, Col2 digest).  The Col1 digests were
   re-pinned once, together, when xseqcol1 began writing the compact
   path dictionary xseqcol2 writes (dict_desig, desig_kind and the
   front-coded desig_names in place of dict_kind, dict_name_off and
   dict_names); no Col2 digest moved. *)
let golden =
  [
    (Dblp, "probability",
      "f55e0180c770dbbd3497331af01f9346", "c05c1728d74ca28a0dc84bd49b1c395e");
    (Dblp, "probability/sample 0.3",
      "cac925627ea6fc4eec9fdcc6e4aeeb40", "1a76d3fc14d61bd893b5b99bb9543db5");
    (Dblp, "depth-first",
      "fe37b6c5ebc496a05ded69595a3fbdbe", "4f0f6884f915bb6a9fd092f221663732");
    (Dblp, "depth-first/canonical",
      "d1f59ebde61ed4973b1905f2471b231c", "009aff6e9a5a05bcc43331173b6fc161");
    (Dblp, "breadth-first",
      "61c27c81a101f1ae671ccb1457d7c880", "91e5867ef82f418616aa1e7d31d2571d");
    (Dblp, "breadth-first/canonical",
      "8d431d979c4ccb37758bbba9dc51e71e", "5512cd49ed52a51a08b0dfe19c460e40");
    (Dblp, "random",
      "ec684bccbed6ee82b7c967458ba35b65", "c9a00417e6a93419abc7266b0ad9cff7");
    (Dblp, "text",
      "8b69a5c49a287c43a57cc5c66dac59ab", "37b170256abd41f80679d6856b5dd06a");
    (Xmark, "probability",
      "1c86daf640987e20e3d9d63cc7fde09a", "d28f121d9bcf646a1a150606a3e1cbf9");
    (Xmark, "probability/sample 0.3",
      "1969f0d1418590a9811857c04a0fcacc", "006dc44a8f284dc7b202b6150ad2948c");
    (Xmark, "depth-first",
      "3ec51489d7abcb95a6627da506975509", "96c8dd52803a1831b6d4473a0ce1f267");
    (Xmark, "depth-first/canonical",
      "ad931240b28396fd4089287e0db95abf", "7603077c9cf01e7ca36cfc306d9dce64");
    (Xmark, "breadth-first",
      "7b08edd663e4e88358df5139c1a7979c", "dc31b99c9530b5601ac4e01bda4a9eb1");
    (Xmark, "breadth-first/canonical",
      "e35592091783d9186462d4fea3cf6c79", "9b1d02b915cc4b492241677e572f16e4");
    (Xmark, "random",
      "26b52443c84e8faa545b538303147a15", "644459fa496dc1d956625eb96acfed3e");
    (Xmark, "text",
      "26fcdc3aec71becf33af840b1661b194", "37143fdabe3af8806ebecc8c926278cf");
    (Dblp_text, "probability",
      "f55e0180c770dbbd3497331af01f9346", "c05c1728d74ca28a0dc84bd49b1c395e");
    (Xmark_text, "probability",
      "1c86daf640987e20e3d9d63cc7fde09a", "d28f121d9bcf646a1a150606a3e1cbf9");
    (Mixed_text, "probability",
      "08024094a6089dc304bb2bd1944bc65d", "f15d3b92f11f8249d6518c0d04e40910");
    (Mixed_text, "depth-first/canonical",
      "da9eda4b6f40c8dd35e6f525401c8fce", "d5c4ec00cee8796136caeb808f690308");
    (Mixed_text, "text",
      "9c407a3c9558e85cfdb6db0253b2ed09", "875dde6fb0dbc50970ee607cbb9ac469");
  ]

(* The re-saves checked, as (format loaded, load mode, format saved). *)
let resaves =
  let open Xstorage.Store in
  [
    (Col1, Resident, Col2);
    (Col1, Resident, Col1);
    (Col2, Resident, Col2);
    (Col2, Paged, Col2);
  ]

let resave_name (from, mode, format) =
  Printf.sprintf "the %s snapshot loaded %s and re-saved as %s"
    (Xstorage.Store.format_name from)
    (match mode with
     | Xstorage.Store.Resident -> "resident"
     | Xstorage.Store.Paged -> "paged")
    (Xstorage.Store.format_name format)

(* The Col1 and Col2 digests of a build, and the digest of each of
   [resaves]. *)
let digests corpus config =
  let col1 = Filename.temp_file "xseq_golden" ".col1" in
  let col2 = Filename.temp_file "xseq_golden" ".col2" in
  let resaved = Filename.temp_file "xseq_golden" ".resaved" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ col1; col2; resaved ])
    (fun () ->
      let index = Xseq.build ~config (generate corpus) in
      Xseq.save ~format:Xstorage.Store.Col1 index col1;
      Xseq.save ~format:Xstorage.Store.Col2 index col2;
      let hex f = Digest.to_hex (Digest.file f) in
      let resave (from, mode, format) =
        let loaded =
          Xseq.load ~mode
            (match from with
             | Xstorage.Store.Col1 -> col1
             | Xstorage.Store.Col2 -> col2)
        in
        Xseq.save ~format loaded resaved;
        Option.iter Xstorage.Store.close (Xseq.backing_store loaded);
        hex resaved
      in
      ((hex col1, hex col2), List.map resave resaves))

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
  List.iter
    (fun (corpus, name, want1, want2) ->
      let _, got = List.assoc (corpus, name) forward in
      List.iter2
        (fun ((_, _, format) as resave) digest ->
          let want =
            match format with
            | Xstorage.Store.Col1 -> want1
            | Xstorage.Store.Col2 -> want2
          in
          if digest <> want then
            Alcotest.failf "(%s, %S): %s gives %s, not the pinned %s"
              (corpus_name corpus) name (resave_name resave) digest want)
        resaves got)
    golden;
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
      (String.concat ";\n" mismatches)

let () =
  Alcotest.run "golden"
    [
      ( "snapshots",
        [
          Alcotest.test_case "save digests, both formats" `Quick test_digests;
        ] );
    ]
