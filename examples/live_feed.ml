(* A live auction feed on a durable store ([Xlog]).

   New records arrive continuously: each insert is appended to the
   write-ahead log, lands in an unindexed memtable that queries scan
   exactly, and is sealed into an indexed delta segment once the
   memtable fills.  Compaction folds the segments into a new base
   snapshot.  At the end the store is closed and reopened from disk,
   answering identically.

   Run with:  dune exec examples/live_feed.exe *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () =
  let initial = Xdatagen.Xmark_gen.generate ~identical_siblings:true 2_000 in
  let feed = Xdatagen.Xmark_gen.generate ~seed:77 ~identical_siblings:true 1_500 in
  let dir = Filename.temp_file "live_feed" ".store" in
  Sys.remove dir;
  (* Group commit: fsync every 64 records instead of every one. *)
  let live = Xlog.open_ ~sync_every:64 ~memtable_limit:500 dir in
  Array.iter (fun d -> ignore (Xlog.insert live d : int)) initial;
  ignore (Xlog.compact live : bool);
  let watch = "/site//person[address/country='United States']" in

  Printf.printf "live store over %d records; watching %s\n\n"
    (Xlog.doc_count live) watch;
  Array.iteri
    (fun k record ->
      ignore (Xlog.insert live record : int);
      if (k + 1) mod 300 = 0 then
        Printf.printf
          "after %4d arrivals: %5d records (%3d unindexed, %d segments), %4d \
           watchlist hits\n%!"
          (k + 1) (Xlog.doc_count live) (Xlog.pending live)
          (Xlog.segments live)
          (List.length (Xlog.query_xpath live watch)))
    feed;

  (* Compact, close, reopen from disk. *)
  ignore (Xlog.compact live : bool);
  let before = Xlog.query_xpath live watch in
  Xlog.close live;
  let reopened = Xlog.open_ dir in
  let after = Xlog.query_xpath reopened watch in
  Printf.printf
    "\ncompacted %d records into %s and reopened: answers identical: %b\n"
    (Xlog.doc_count reopened) dir (before = after);
  Xlog.close reopened;
  rm_rf dir
