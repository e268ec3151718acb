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

type corpus = Dblp | Xmark

let corpus_name = function Dblp -> "dblp" | Xmark -> "xmark"

let generate = function
  | Dblp -> Xdatagen.Dblp_gen.generate ~seed:11 300
  | Xmark -> Xdatagen.Xmark_gen.generate ~seed:5 ~identical_siblings:true 120

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

(* (corpus, config, Col1 digest, Col2 digest) *)
let golden =
  [
    (Dblp, "probability",
      "3ec3982811ecb06cc588e76bf8574105", "11b5c2564f68ee0f78c3e048c580a328");
    (Dblp, "probability/sample 0.3",
      "ceee76b9f875e2fd45ad2db177f2a5ec", "e6998f0f418e6e5b0c04f241ce59a361");
    (Dblp, "depth-first",
      "9b0c0b0f44e8d92d3bfb51db85de25da", "6723daae5b4f818cbd9c20527796b6f1");
    (Dblp, "depth-first/canonical",
      "7b41106950604893405f8229190aa59a", "3ec536b80c0f22cbcd901e3484b16760");
    (Dblp, "breadth-first",
      "59bdeeaa0c39dde1d9ff232f9c5ff66c", "82d45a7d2bb982caef26f03741d4e8b5");
    (Dblp, "breadth-first/canonical",
      "c8f5defdd072077d56fd6f6f88ccf0a8", "627d5767377da5f42f474a067a88c6bf");
    (Dblp, "random",
      "a7175bdd6e7aa0ca239eb98cf15d42ee", "53d64df9c20f22b7ff0ef43ac2043aee");
    (Dblp, "text",
      "c3281f3d49341f23b1f0f44be2d3f40d", "e9c1db380e6c562c6fcfb4139cbcb185");
    (Xmark, "probability",
      "040dd596267d07798bd67c2b9e31cb78", "b7329d487a0fcb61d453a4aeaba720c5");
    (Xmark, "probability/sample 0.3",
      "63771de86f14752bc765f89e2257b14e", "71c82d858fd461d457b55be2d09033df");
    (Xmark, "depth-first",
      "429726dd92baca68644c0fb79da109f9", "2eef41a3c859ef57cd5c35138d43cf39");
    (Xmark, "depth-first/canonical",
      "fd433bef742e9928a78b365acc8c67e5", "c9e53698d4edc32176cf6909443eb642");
    (Xmark, "breadth-first",
      "b2fb0f74bc94a813d1f8b8149ca6bbdf", "ed6d3c93456a17145ca9983cafc84359");
    (Xmark, "breadth-first/canonical",
      "25d536ab066523d27ff607dd10961f01", "9a918c850e533467d1d493920b5e25f2");
    (Xmark, "random",
      "76ec2a2770dc376c480d028dd4074155", "7d2262b8b620e312d77d95a319ea56c5");
    (Xmark, "text",
      "e5eb8a5ac290db8282e1102b318107b0", "3ea6a3af2678e45e57628f13d87f4f33");
  ]

(* The re-saves checked, as (format loaded, load mode, format saved). *)
let resaves =
  let open Xstorage.Store in
  [
    (Col1, Resident, Col2);
    (Col1, Paged, Col1);
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
