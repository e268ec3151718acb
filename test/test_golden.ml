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

(* (corpus, config, plain digest, compressed digest).  Pinned when
   snapshots became version 4: no record region, a [sibling_order]
   region, every index region byte for byte as the version-3 files that
   earlier builds wrote with and without [--compress] held it. *)
let golden =
  [
    (Dblp, "probability",
      "56c3a2b6affa1d01a06c84161488e951", "2e5929424ecdab38b5810dc872f388f7");
    (Dblp, "probability/sample 0.3",
      "1f72a4e5b4de080cf0fc55a72b1be8f5", "c491bebc3101472883b8a2ebcee64c74");
    (Dblp, "depth-first",
      "0f36dd9d7d1113c7042ac24807451487", "c767e00251e00d09ff45e1fb80510c1b");
    (Dblp, "depth-first/canonical",
      "309ca1e36e50124f83553f297f1acf12", "28c46343e7a73c41c4f757f279228515");
    (Dblp, "breadth-first",
      "2a626d7910f6581b593ccd0f647c59f1", "5943fc91d8c94488eb91a3081c8a1204");
    (Dblp, "breadth-first/canonical",
      "ac7ad85f47b1ecb2ba27f47610f4089c", "a31b68f52c09ec224564d834fffb3c90");
    (Dblp, "random",
      "c3be1e456b5abc39fd30a30f973103e8", "db8e61255613784203a81c986bd5d73a");
    (Dblp, "text",
      "07707c78aabefb06297a12309cd77088", "07707c78aabefb06297a12309cd77088");
    (Xmark, "probability",
      "bec04e058a9724bdef5517a84876cc0e", "3d948d9bc7f0155bf14332e47c4867ec");
    (Xmark, "probability/sample 0.3",
      "256af0641f235329a7148b0c41643230", "b7e8a0a5b61f1cdd2946eb2a25acb7c6");
    (Xmark, "depth-first",
      "cbb537da3d0a107664b9d917ae87b2b9", "9c537e698a712ecb91a49d54a0121c2b");
    (Xmark, "depth-first/canonical",
      "3c7bda08aba564324e39b7686e136c1f", "f0112624c8d039613e3860a94680bb74");
    (Xmark, "breadth-first",
      "67db993862cc1f16e6942a3da68c31e7", "52880068da2a210373071238f4b56a2a");
    (Xmark, "breadth-first/canonical",
      "671067d829ea9a55840fad873f0fb652", "47a92c39af9f08ea2369378beac68c2c");
    (Xmark, "random",
      "79ff9df08639716057b0851446540b91", "272b6cf34816d9ee9e77b602ad3f3cf1");
    (Xmark, "text",
      "7ab16d856beb1c7e2cf5d0d5ac67f8b2", "99c10c9f0612163a48938d95c5dd68d4");
    (Dblp_text, "probability",
      "56c3a2b6affa1d01a06c84161488e951", "2e5929424ecdab38b5810dc872f388f7");
    (Xmark_text, "probability",
      "bec04e058a9724bdef5517a84876cc0e", "3d948d9bc7f0155bf14332e47c4867ec");
    (Mixed_text, "probability",
      "0cd6b91e8c7daaf9c72b2fa831a92477", "bf434bcc405888a252a6f1827f035d54");
    (Mixed_text, "depth-first/canonical",
      "36f6e5f971c21b4f65b763a97bcce47a", "9d1279e993a20eecee0697920c7cac06");
    (Mixed_text, "text",
      "fc500e64b2a8fcbaa281990e19acd618", "fc500e64b2a8fcbaa281990e19acd618");
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

let () =
  Alcotest.run "golden"
    [
      ( "snapshots",
        [
          Alcotest.test_case "save digests, both formats" `Quick test_digests;
          Alcotest.test_case "documents round-trip" `Quick
            test_documents_roundtrip;
        ] );
    ]
