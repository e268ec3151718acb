(* Golden snapshot digests.  The MD5 of [Xseq.save]'s output — both
   formats — over fixed-seed DBLP and XMark corpora, under every
   persisted sequencing configuration.  Labels, link order, dictionary
   order and the document table all follow from the order in which a
   build interns designators and paths, so any change to that order, to
   the sequencing, or to the labelling shows up here as a changed
   digest.

   Each snapshot is built in a forked child: interning is process-global,
   and a build that found its corpus already interned by an earlier build
   would not exercise its own interning order.  The children see the
   same fresh tables whatever subset of the suite runs. *)

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
      "1c0bd2cedafe2809281f086e3fb5a983", "6f96e4717314d5ddff38fa27da81ebf0");
    (Dblp, "probability/sample 0.3",
      "92cece7ea2ab9f83054b7fca1b59bafa", "f21e4a154bad2708676e689b16f7149c");
    (Dblp, "depth-first",
      "1d8ef4e682f5fc015a72e381b306bfff", "fb4e4008e5efb747cbce4ad13d9aa425");
    (Dblp, "depth-first/canonical",
      "d60015c21af6a86b572ce78568004230", "6d94d0757c765ee0ef78b4aa384253ea");
    (Dblp, "breadth-first",
      "37b9939d928f18962af306b303eaf8be", "bc3cb2233706e6d17a695d1a85bf9bc9");
    (Dblp, "breadth-first/canonical",
      "a2643d2857d71624bfae95f3f4f0cf7c", "872beada88aa19728c4f34261c054846");
    (Dblp, "random",
      "f00cd0954656b2aab728227622a59bc8", "45f1b1b1b3d81160618ea51798af4863");
    (Dblp, "text",
      "007ffcc872126d3873d0e94414d2e6a3", "9f0a61f31bc5e25cac3baed7a45578e2");
    (Xmark, "probability",
      "f48cb61a7a80b4185a8a87298eafcf72", "0847a3ba6fcb2046531d3f87159ddce5");
    (Xmark, "probability/sample 0.3",
      "e3b90c0ab8d7e0c9ffa8d0d2f17ac1db", "1ad00219f85c0db4a21b918defccf861");
    (Xmark, "depth-first",
      "9fb8c14904201d53a621ac13ecfd2ebd", "96242a14c57bbdeb703ff340eadade91");
    (Xmark, "depth-first/canonical",
      "fa5a7813c1d16b75272381a3bd0c403f", "a10ed65981dee6ba1420ea9648825322");
    (Xmark, "breadth-first",
      "f8955c75e1c640ebcbeee03f34565f81", "164fcdc6a30607f1653cae6dbf0121c4");
    (Xmark, "breadth-first/canonical",
      "3335a26878905faf77c5aabbd67aa879", "2001ed3f7113c7e178f0bd4d081e7ca5");
    (Xmark, "random",
      "c4ca628e66af5e241a6941f3ecd8c2dc", "40bc170805d102592d738fd1f9db5e84");
    (Xmark, "text",
      "d81c8d44201fc2aaaff275688d02fe63", "410280a4d3b0634766426c086f9bbf4a");
  ]

(* Builds in a fresh child process and returns the two digests. *)
let digests corpus config =
  let col1 = Filename.temp_file "xseq_golden" ".col1" in
  let col2 = Filename.temp_file "xseq_golden" ".col2" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ col1; col2 ])
    (fun () ->
      match Unix.fork () with
      | 0 ->
        let code =
          match
            let index = Xseq.build ~config (generate corpus) in
            Xseq.save ~format:Xstorage.Store.Col1 index col1;
            Xseq.save ~format:Xstorage.Store.Col2 index col2
          with
          | () -> 0
          | exception e ->
            prerr_endline (Printexc.to_string e);
            1
        in
        Unix._exit code
      | pid ->
        (match Unix.waitpid [] pid with
         | _, Unix.WEXITED 0 -> ()
         | _ -> Alcotest.fail "snapshot build failed in the child");
        (Digest.to_hex (Digest.file col1), Digest.to_hex (Digest.file col2)))

let test_digests () =
  let mismatches =
    List.filter_map
      (fun (corpus, name, want1, want2) ->
        let got1, got2 = digests corpus (List.assoc name configs) in
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
