(* Auction-site analytics à la Tables 4 and 7: XMark-like records, the
   paper's three sample queries with their disk accesses — the pages a
   paged snapshot reads from a cold buffer pool — and the tunable
   weighted sequencing of Eq. 6.

   Run with:  dune exec examples/auction_site.exe *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 20_000 in
  Printf.printf "generating %d XMark-like records...\n%!" n;
  let docs = Xdatagen.Xmark_gen.generate ~identical_siblings:true n in
  let index = Xseq.build docs in
  Printf.printf "index: %d nodes over %d records (avg sequence length %.1f)\n\n"
    (Xseq.node_count index) (Xseq.doc_count index)
    (Xseq.average_sequence_length index);

  (* Table 4's queries, posed against the generated data. *)
  let queries =
    [
      ( "Q1",
        Printf.sprintf
          "/site//item[location='United States']/mail/date[text='%s']"
          Xdatagen.Xmark_gen.q1_date );
      ("Q2", "/site//person/*/age[text='32']");
      ( "Q3",
        Printf.sprintf "//closed_auction[seller/person='%s']/date[text='%s']"
          (Xdatagen.Xmark_gen.a_person_id n)
          Xdatagen.Xmark_gen.q3_date );
    ]
  in

  (* Table 7: query length, result size, disk accesses, elapsed time.
     The index is saved compressed (xseqcol2, 1 KiB pages) and reopened
     paged, so its column blocks are read from disk page by page through
     the buffer pool. *)
  let path = Filename.temp_file "auction_site" ".xseq" in
  Xseq.save ~compress:true index path;
  let paged = Xseq.load ~mode:Xstorage.Store.Paged path in
  let store = Option.get (Xseq.backing_store paged) in
  Printf.printf "%-4s %-12s %-11s %-14s %-8s\n" "" "query length" "result size"
    "disk accesses" "time(ms)";
  List.iter
    (fun (name, q) ->
      let pat = Xseq.Xpath.parse q in
      Xstorage.Store.drop_pool store;
      let reads = Xstorage.Store.page_reads store in
      let (ids, ms) = time (fun () -> Xseq.query paged pat) in
      Printf.printf "%-4s %-12d %-11d %-14d %-8.2f\n" name
        (Xseq.Pattern.size pat) (List.length ids)
        (Xstorage.Store.page_reads store - reads)
        ms)
    queries;
  Xstorage.Store.close store;
  Sys.remove path;

  (* Eq. 6 in action: boost a frequently-queried, highly selective path so
     it appears earlier in the sequences, shrinking the search space. *)
  Printf.printf "\ntuning: weighting the selective 'date' path (Eq. 6)\n";
  let date_weighted symbols =
    let stats = Xschema.Stats.of_documents_array ~symbols docs in
    Xschema.Stats.set_tag_weight stats "date" 50.0;
    Xschema.Stats.strategy stats
  in
  let weighted =
    Xseq.build
      ~config:{ Xseq.default_config with sequencing = Xseq.Custom date_weighted }
      docs
  in
  let q1 = snd (List.hd queries) in
  let run idx =
    let s = Xquery.Matcher.create_stats () in
    let (ids, ms) = time (fun () -> Xseq.query_xpath ~stats:s idx q1) in
    (ids, ms, s.Xquery.Matcher.candidates)
  in
  let ids0, ms0, cand0 = run index in
  let ids1, ms1, cand1 = run weighted in
  assert (ids0 = ids1);
  Printf.printf
    "  default ordering:  %4d candidates examined (%.2f ms)\n\
    \  weighted ordering: %4d candidates examined (%.2f ms)\n"
    cand0 ms0 cand1 ms1
