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
   times. *)

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
      "7300a870adbc81e7bb0e17f27e256c84", "11b5c2564f68ee0f78c3e048c580a328");
    (Dblp, "probability/sample 0.3",
      "b5a62896d78364430a2c4fceba462761", "e6998f0f418e6e5b0c04f241ce59a361");
    (Dblp, "depth-first",
      "577a39b117dccc0e86ebe71041da7ce4", "6723daae5b4f818cbd9c20527796b6f1");
    (Dblp, "depth-first/canonical",
      "f905aa70f53a7e052156622b6ba7f331", "3ec536b80c0f22cbcd901e3484b16760");
    (Dblp, "breadth-first",
      "a9b5b68bea3e88149e48989bccbb09d2", "82d45a7d2bb982caef26f03741d4e8b5");
    (Dblp, "breadth-first/canonical",
      "4d5bc3879d5ec1780dcf577b1c33176a", "627d5767377da5f42f474a067a88c6bf");
    (Dblp, "random",
      "474e900254cdda0c7f53b592fda00287", "53d64df9c20f22b7ff0ef43ac2043aee");
    (Dblp, "text",
      "46f8bc1bec9e130b796a48889a8576a4", "e9c1db380e6c562c6fcfb4139cbcb185");
    (Xmark, "probability",
      "bdc6e689fee68b24a92dc7aebb5b745c", "b7329d487a0fcb61d453a4aeaba720c5");
    (Xmark, "probability/sample 0.3",
      "9b7d00df35ec9db447c406315033d11b", "71c82d858fd461d457b55be2d09033df");
    (Xmark, "depth-first",
      "53c7d00e6f40fedecfd9c01603275c47", "2eef41a3c859ef57cd5c35138d43cf39");
    (Xmark, "depth-first/canonical",
      "840555bee461f41eb955116c0bb48c00", "c9e53698d4edc32176cf6909443eb642");
    (Xmark, "breadth-first",
      "ccdb30ade7bf251f19298828796514bc", "ed6d3c93456a17145ca9983cafc84359");
    (Xmark, "breadth-first/canonical",
      "a09995df54a053f7431fc8046364686d", "9a918c850e533467d1d493920b5e25f2");
    (Xmark, "random",
      "399e905299fe36cbd032b7fab99f12e5", "7d2262b8b620e312d77d95a319ea56c5");
    (Xmark, "text",
      "7ce0308555de41ff5a66a1dddcfe9cfd", "3ea6a3af2678e45e57628f13d87f4f33");
  ]

let digests corpus config =
  let col1 = Filename.temp_file "xseq_golden" ".col1" in
  let col2 = Filename.temp_file "xseq_golden" ".col2" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ col1; col2 ])
    (fun () ->
      let index = Xseq.build ~config (generate corpus) in
      Xseq.save ~format:Xstorage.Store.Col1 index col1;
      Xseq.save ~format:Xstorage.Store.Col2 index col2;
      (Digest.to_hex (Digest.file col1), Digest.to_hex (Digest.file col2)))

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
        let got1, got2 = List.assoc (corpus, name) forward in
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
