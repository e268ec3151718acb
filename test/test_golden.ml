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
      "2fe2cd3197b41b4557ce25167ee6b455", "ca924c0ee2989a1a73e8fc972e3ff006");
    (Dblp, "probability/sample 0.3",
      "d714cb3e6d34bb4d0b2e1995297ba197", "483eef9c12c2d93e5949363436e10986");
    (Dblp, "depth-first",
      "3fd375183f444d6194f2d6c90c9b024a", "50e48002c9e23d7caf8a238a6c45391b");
    (Dblp, "depth-first/canonical",
      "b4068c8ca4eab86a40f03e97824757ff", "e7ceced1812060b38e741d855e3f03fd");
    (Dblp, "breadth-first",
      "beece4e6bef145910f40758eb48f86af", "777d0a8f5ddbfe97002d29ca49d1c614");
    (Dblp, "breadth-first/canonical",
      "83376ccb36dca5dbab2b4d4f6131b07b", "54c445796e5da1c84043b7fdeefd023d");
    (Dblp, "random",
      "71a91b00ef893e1139b2c110ce443539", "88e7cc73b45edea642a5c85319166362");
    (Dblp, "text",
      "d137abb2f17dffcf47b43423c12faa0a", "0bfd0553631076a20ef7b5293146bab6");
    (Xmark, "probability",
      "85c86915c9b25f122307c1b6b060aa70", "5ab21da0d03c1ff4235f41c55bd9784d");
    (Xmark, "probability/sample 0.3",
      "77f6009b72d62fea45bea4ebd52dcb20", "7e519fc570343e23e129ebc4ccf289f1");
    (Xmark, "depth-first",
      "d36bc0d60fa5c0ab422b377b232e65fd", "6b970821a3f3f53d124b076ccb5f71c2");
    (Xmark, "depth-first/canonical",
      "20fe2411746532e6a231eedde5fc067b", "b7e32dc4cd7b10b9e286c1698215962b");
    (Xmark, "breadth-first",
      "5915cba6e1032483ff532f0203db61ff", "425ead3696fd378dec1c9947f93bf1ca");
    (Xmark, "breadth-first/canonical",
      "48ffbb2db31b993af7ad1f604422c6d0", "9f575e6ec518e812015eae59e4aba155");
    (Xmark, "random",
      "c72155ab3bbe23f8672ca78d76d25cfd", "42a6bba51c0b21e9f10a5bade23d9d6e");
    (Xmark, "text",
      "c470d6d211a47e4374d3c71ff1f3e431", "b87b3445389cddefa2ce0295ae498a83");
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
