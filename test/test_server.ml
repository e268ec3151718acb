(* End-to-end tests of the query server: an in-process daemon on a
   temp Unix socket, exercised by real clients over the wire.

   Covers the full acceptance surface: wire answers equal offline
   [Xseq.query]; concurrent clients (including a slow writer/reader and
   a garbage sender) never crash the accept loop; metrics reconcile
   against the requests actually sent; overload answers [Overloaded]
   frames while the server stays up; deadlines answer [Timeout]; and
   [Reload] hot swap yields only old-consistent or new-consistent
   answers. *)

module T = Xmlcore.Xml_tree
module P = Xserver.Protocol
module Server = Xserver.Server
module Client = Xserver.Client
module Plan_cache = Xserver.Plan_cache

let e = T.elt
let v = T.text

(* The fault-tolerance tests write into sockets whose peer has already
   hung up; that must be EPIPE, not a process-killing signal. *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let docs_a =
  [|
    e "P"
      [
        v "xml";
        e "R" [ e "M" [ v "tom" ]; e "L" [ v "newyork" ] ];
        e "D"
          [
            e "M" [ v "johnson" ];
            e "U" [ e "M" [ v "mary" ]; e "N" [ v "GUI" ] ];
            e "U" [ e "N" [ v "engine" ] ];
            e "L" [ v "boston" ];
          ];
      ];
    e "P" [ e "L" [ e "S" [] ]; e "L" [ e "B" [] ] ];
    e "P" [ e "L" [ e "S" []; e "B" [] ] ];
    e "P" [ e "R" [ e "L" [ v "boston" ] ] ];
  |]

let extra_doc = e "P" [ e "L" [ e "S" [] ] ]

let xpaths =
  [ "/P/R/L"; "/P//N"; "/P/L/S"; "/P/R[L='newyork']"; "//U[M='mary']"; "/P/*/L" ]

let index_a = Xseq.build docs_a
let expected = List.map (fun q -> (q, Xseq.query_xpath index_a q)) xpaths

(* --- scaffolding ----------------------------------------------------------- *)

let tmp_sock () =
  let path = Filename.temp_file "xseq_srv" ".sock" in
  Sys.remove path;
  path

let with_server ?config source f =
  let path = tmp_sock () in
  let srv = Server.create ?config source in
  Server.start srv [ Server.Unix_sock path ];
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f srv (Server.Unix_sock path))

let raw_connect (addr : Server.addr) =
  match addr with
  | Server.Unix_sock path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Server.Tcp _ -> Alcotest.fail "tests use unix sockets"

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* JSON scraping, enough for the flat integers the stats op emits.
   [key] must be the bare field name; matches the first occurrence. *)
let index_of hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

let find_int_opt json key =
  let pat = Printf.sprintf "\"%s\":" key in
  match index_of json pat with
  | None -> None
  | Some i ->
    let j = ref (i + String.length pat) in
    while !j < String.length json && json.[!j] = ' ' do
      incr j
    done;
    let k = ref !j in
    while
      !k < String.length json
      && (match json.[!k] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr k
    done;
    if !k = !j then None else Some (int_of_string (String.sub json !j (!k - !j)))

let find_int json key =
  match find_int_opt json key with
  | Some n -> n
  | None -> Alcotest.failf "stats JSON lacks %S:\n%s" key json

(* --- basic round trips ----------------------------------------------------- *)

let test_roundtrip () =
  with_server (Server.Static index_a) (fun srv addr ->
      Client.with_connection addr (fun c ->
          Client.ping c;
          List.iter
            (fun (q, want) ->
              Alcotest.(check (list int)) q want (Client.query c q))
            expected;
          let gen, ids = Client.query_full c "/P/L/S" in
          Alcotest.(check int) "generation" (Server.generation srv) gen;
          Alcotest.(check (list int)) "query_full ids" [ 1; 2 ] ids;
          let batch = Client.query_batch c (Array.of_list xpaths) in
          Array.iteri
            (fun i ids ->
              Alcotest.(check (list int))
                ("batch " ^ List.nth xpaths i)
                (List.assoc (List.nth xpaths i) expected)
                ids)
            batch;
          let json = Client.stats c in
          Alcotest.(check bool) "stats json shaped" true
            (String.length json > 2 && json.[0] = '{'
            && json.[String.length json - 1] = '}')))

let test_bad_xpath () =
  with_server (Server.Static index_a) (fun _srv addr ->
      Client.with_connection addr (fun c ->
          (match Client.query c "/P[unclosed" with
           | _ -> Alcotest.fail "expected Bad_request"
           | exception Client.Server_error (P.Bad_request, _) -> ());
          (* the connection survives an application-level error *)
          Client.ping c;
          Alcotest.(check (list int)) "still correct"
            (List.assoc "/P/L/S" expected)
            (Client.query c "/P/L/S")))

(* A self step is refused over the wire, its position in the message,
   rather than parsed as a tag named "." that answers nothing. *)
let test_self_step () =
  with_server (Server.Static index_a) (fun _srv addr ->
      Client.with_connection addr (fun c ->
          (match Client.query c "//P[.//S]" with
           | _ -> Alcotest.fail "expected Bad_request"
           | exception Client.Server_error (P.Bad_request, msg) ->
             Alcotest.(check bool)
               ("the message names the position: " ^ msg)
               true
               (index_of msg "at position 4" <> None));
          Alcotest.(check (list int)) "the connection still answers"
            (List.assoc "/P/L/S" expected)
            (Client.query c "/P/L/S")))

(* A short XPath with ten identical predicates once held a worker for
   seconds (all 10! sibling permutations were built before the expansion
   budget was checked).  It must now be refused or answered in well
   under 50 ms, and the worker must be free for the next request.  Three
   distinct queries, so the plan cache cannot answer them, and the
   fastest counts: one scheduling hiccup on a loaded box is not what is
   being measured. *)
let test_identical_predicates_bounded () =
  let article k =
    e "article"
      (e "title" [ v (Printf.sprintf "t%d" k) ]
      :: List.init 12 (fun i -> e "author" [ v (Printf.sprintf "a%d" (i + k)) ]))
  in
  let index = Xseq.build [| article 0; article 1; e "article" [ e "author" [] ] |] in
  with_server (Server.Static index) (fun _srv addr ->
      Client.with_connection addr (fun c ->
          let fastest = ref infinity in
          List.iter
            (fun tail ->
              let q =
                "//article" ^ String.concat "" (List.init 10 (fun _ -> "[author]")) ^ tail
              in
              let t0 = Unix.gettimeofday () in
              (match Client.query c q with
               | ids -> Alcotest.(check (list int)) ("answer of " ^ q) [ 0; 1 ] ids
               | exception Client.Server_error (P.Bad_request, _) -> ());
              fastest := Float.min !fastest (Unix.gettimeofday () -. t0))
            [ ""; "[title]"; "[author][title]" ];
          if !fastest >= 0.05 then
            Alcotest.failf "ten identical predicates took %.0f ms" (!fastest *. 1000.);
          Client.ping c))

(* --- concurrency and hostile peers ----------------------------------------- *)

let test_concurrent_and_hostile () =
  with_server (Server.Static index_a) (fun _srv addr ->
      let failures = ref [] in
      let fm = Mutex.create () in
      let fail_msg m =
        Mutex.lock fm;
        failures := m :: !failures;
        Mutex.unlock fm
      in
      let querier k () =
        try
          Client.with_connection addr (fun c ->
              for i = 0 to 24 do
                let q = List.nth xpaths ((i + k) mod List.length xpaths) in
                if Client.query c q <> List.assoc q expected then
                  fail_msg (Printf.sprintf "thread %d: %s wrong" k q);
                if i mod 5 = 0 then begin
                  let arr = Array.of_list xpaths in
                  let got = Client.query_batch c arr in
                  Array.iteri
                    (fun j ids ->
                      if ids <> List.assoc arr.(j) expected then
                        fail_msg
                          (Printf.sprintf "thread %d: batch %s wrong" k arr.(j)))
                    got
                end
              done)
        with ex -> fail_msg (Printf.sprintf "thread %d: %s" k (Printexc.to_string ex))
      in
      let slow_peer () =
        (* Dribbles a valid Query frame one byte at a time, then dawdles
           before reading the response. *)
        try
          let fd = raw_connect addr in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let frame =
                P.encode_request (P.Query { xpath = "/P/L/S"; timeout_ms = 0 })
              in
              String.iter
                (fun ch ->
                  send_all fd (String.make 1 ch);
                  Thread.delay 0.001)
                frame;
              Thread.delay 0.05;
              match P.read_frame fd with
              | Ok f ->
                (match P.decode_response f with
                 | Ok (P.Result { ids; _ }) ->
                   if ids <> List.assoc "/P/L/S" expected then
                     fail_msg "slow peer: wrong ids"
                 | _ -> fail_msg "slow peer: unexpected response")
              | Error _ -> fail_msg "slow peer: no response")
        with ex -> fail_msg ("slow peer: " ^ Printexc.to_string ex)
      in
      let garbage_peer () =
        (* Exactly [header_size] bytes of garbage: the server must answer
           a Bad_request frame and close — never crash. *)
        try
          let fd = raw_connect addr in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              send_all fd "BADBYTES";
              (match P.read_frame fd with
               | Ok f ->
                 (match P.decode_response f with
                  | Ok (P.Error { code = P.Bad_request; _ }) -> ()
                  | _ -> fail_msg "garbage peer: expected Bad_request frame")
               | Error _ -> fail_msg "garbage peer: expected an error frame");
              match P.read_frame fd with
              | Error P.Eof -> ()
              | _ -> fail_msg "garbage peer: connection should be closed")
        with ex -> fail_msg ("garbage peer: " ^ Printexc.to_string ex)
      in
      let oversized_peer () =
        (* A header announcing a 4 GiB payload must be rejected before
           any allocation. *)
        try
          let fd = raw_connect addr in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let b = Bytes.create 8 in
              Bytes.blit_string P.magic 0 b 0 2;
              Bytes.set b 2 (Char.chr P.version);
              Bytes.set b 3 '\x00';
              Bytes.set_int32_le b 4 0xFFFFFF0l;
              send_all fd (Bytes.to_string b);
              match P.read_frame fd with
              | Ok f ->
                (match P.decode_response f with
                 | Ok (P.Error { code = P.Bad_request; _ }) -> ()
                 | _ -> fail_msg "oversized peer: expected Bad_request")
              | Error _ -> fail_msg "oversized peer: expected an error frame")
        with ex -> fail_msg ("oversized peer: " ^ Printexc.to_string ex)
      in
      let truncated_peer () =
        (* Dies mid-frame; the server must shrug it off. *)
        try
          let fd = raw_connect addr in
          let frame = P.encode_request P.Ping in
          send_all fd (String.sub frame 0 5);
          Unix.close fd
        with ex -> fail_msg ("truncated peer: " ^ Printexc.to_string ex)
      in
      let threads =
        List.map
          (fun job -> Thread.create job ())
          ([ slow_peer; garbage_peer; oversized_peer; truncated_peer ]
          @ List.init 4 (fun k -> querier k))
      in
      List.iter Thread.join threads;
      Alcotest.(check (list string)) "no failures" [] !failures;
      (* the accept loop is still alive *)
      Client.with_connection addr (fun c ->
          Client.ping c;
          Alcotest.(check (list int)) "still correct"
            (List.assoc "/P/R/L" expected)
            (Client.query c "/P/R/L")))

(* --- metrics reconciliation ------------------------------------------------ *)

let test_metrics_reconcile () =
  with_server (Server.Static index_a) (fun _srv addr ->
      Client.with_connection addr (fun c ->
          for _ = 1 to 3 do
            Client.ping c
          done;
          for i = 1 to 5 do
            ignore (Client.query c (List.nth xpaths (i mod List.length xpaths)))
          done;
          for _ = 1 to 2 do
            ignore (Client.query_batch c [| "/P/R/L"; "/P/L/S" |])
          done;
          (match Client.query c "/P[oops" with
           | _ -> Alcotest.fail "expected Bad_request"
           | exception Client.Server_error (P.Bad_request, _) -> ());
          let json = Client.stats c in
          Alcotest.(check int) "ping count" 3 (find_int json "ping");
          Alcotest.(check int) "query count" 6 (find_int json "query");
          Alcotest.(check int) "batch count" 2 (find_int json "query_batch");
          (* the stats response is generated before it is recorded, so the
             first stats call does not count itself *)
          Alcotest.(check (option int)) "stats not self-counted"
            None (find_int_opt json "stats");
          Alcotest.(check int) "errors_total" 1 (find_int json "errors_total");
          Alcotest.(check int) "bad_request errors" 1
            (find_int json "bad_request");
          Alcotest.(check bool) "bytes received > 0" true
            (find_int json "bytes_received" > 0);
          Alcotest.(check bool) "bytes sent > 0" true
            (find_int json "bytes_sent" > 0);
          Alcotest.(check bool) "connections opened" true
            (find_int json "connections_opened" >= 1);
          Alcotest.(check bool) "matcher probes counted" true
            (find_int json "probes" > 0);
          let json2 = Client.stats c in
          Alcotest.(check int) "second stats sees the first" 1
            (find_int json2 "stats");
          Alcotest.(check int) "requests_total" (3 + 6 + 2 + 1)
            (find_int json2 "requests_total")))

(* --- plan cache ------------------------------------------------------------ *)

let test_plan_cache () =
  with_server (Server.Static index_a) (fun srv addr ->
      Client.with_connection addr (fun c ->
          for _ = 1 to 5 do
            ignore (Client.query c "/P/D[L='boston']/U[N='GUI']")
          done;
          let cache = Server.plan_cache srv in
          Alcotest.(check int) "one compilation" 1 (Plan_cache.misses cache);
          Alcotest.(check int) "four hits" 4 (Plan_cache.hits cache);
          let json = Client.stats c in
          Alcotest.(check int) "hits surface in stats" 4 (find_int json "hits")))

let test_plan_cache_invalidated_by_reload () =
  let path = Filename.temp_file "xseq_snap" ".idx" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xseq.save index_a path;
      with_server (Server.Snapshot path) (fun srv addr ->
          Client.with_connection addr (fun c ->
              let q = "/P/D[L='boston']/U[N='GUI']" in
              ignore (Client.query c q);
              ignore (Client.query c q);
              let cache = Server.plan_cache srv in
              Alcotest.(check int) "warm" 1 (Plan_cache.hits cache);
              let gen0 = Server.generation srv in
              let gen1 = Client.reload c in
              Alcotest.(check bool) "fresh generation" true (gen1 <> gen0);
              (* the cached plan is stamped with the old generation: the
                 next lookup drops it and recompiles *)
              Alcotest.(check (list int)) "still correct" [ 0 ]
                (Client.query c q);
              Alcotest.(check int) "recompiled" 2 (Plan_cache.misses cache))))

(* --- admission control ----------------------------------------------------- *)

let test_overload () =
  let config =
    { Server.default_config with max_pending = 2; debug_delay_ms = 300 }
  in
  with_server ~config (Server.Static index_a) (fun srv addr ->
      let ok = Atomic.make 0
      and overloaded = Atomic.make 0
      and other = Atomic.make 0 in
      let worker () =
        match
          Client.with_connection addr (fun c -> Client.query c "/P/L/S")
        with
        | ids when ids = List.assoc "/P/L/S" expected -> Atomic.incr ok
        | _ -> Atomic.incr other
        | exception Client.Server_error (P.Overloaded, _) ->
          Atomic.incr overloaded
        | exception _ -> Atomic.incr other
      in
      let threads = List.init 8 (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "no stray outcomes" 0 (Atomic.get other);
      Alcotest.(check int) "all accounted for" 8
        (Atomic.get ok + Atomic.get overloaded);
      Alcotest.(check bool) "some served" true (Atomic.get ok >= 1);
      Alcotest.(check bool) "some shed" true (Atomic.get overloaded >= 1);
      (* the server survived the storm *)
      Client.with_connection addr (fun c -> Client.ping c);
      Alcotest.(check int) "nothing stuck in flight" 0 (Server.pending srv))

let test_timeout () =
  let config = { Server.default_config with debug_delay_ms = 80 } in
  with_server ~config (Server.Static index_a) (fun _srv addr ->
      (* The server's own deadline: a raw frame carrying a 20ms budget
         (and no client-side deadline racing it) answers a Timeout
         error frame. *)
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          P.write_frame fd
            (P.encode_request (P.Query { xpath = "/P/L/S"; timeout_ms = 20 }));
          match P.read_frame fd with
          | Ok r -> (
            match P.decode_response r with
            | Ok (P.Error { code = P.Timeout; _ }) -> ()
            | Ok _ -> Alcotest.fail "expected a Timeout error frame"
            | Error m -> Alcotest.failf "bad response: %s" m)
          | Error _ -> Alcotest.fail "no response to the deadlined query");
      Client.with_connection addr (fun c ->
          (* Through the client, [timeout_ms] also bounds the call
             locally: one side fires — the server's answer or the
             client's own deadline — and both surface as a timeout. *)
          (match Client.query ~timeout_ms:20 c "/P/L/S" with
           | _ -> Alcotest.fail "expected Timeout"
           | exception Client.Server_error (P.Timeout, _) -> ()
           | exception Client.Timeout _ -> ());
          (* no deadline: the same query succeeds despite the delay *)
          Alcotest.(check (list int)) "no deadline"
            (List.assoc "/P/L/S" expected)
            (Client.query c "/P/L/S")))

(* --- hot swap --------------------------------------------------------------- *)

let test_reload_hot_swap () =
  let path_a = Filename.temp_file "xseq_snap_a" ".idx" in
  let path_b = Filename.temp_file "xseq_snap_b" ".idx" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path_a; path_b ])
    (fun () ->
      let q = "/P/L/S" in
      Xseq.save index_a path_a;
      let index_b = Xseq.build (Array.append docs_a [| extra_doc |]) in
      Xseq.save index_b path_b;
      let want_a = Xseq.query_xpath index_a q in
      let want_b = Xseq.query_xpath index_b q in
      Alcotest.(check bool) "answers differ across swap" true (want_a <> want_b);
      with_server (Server.Snapshot path_a) (fun srv addr ->
          let gen_a = Server.generation srv in
          let obs = ref [] in
          let om = Mutex.create () in
          let stop_at = Unix.gettimeofday () +. 0.45 in
          let querier () =
            try
              Client.with_connection addr (fun c ->
                  while Unix.gettimeofday () < stop_at do
                    let o = Client.query_full c q in
                    Mutex.lock om;
                    obs := o :: !obs;
                    Mutex.unlock om
                  done)
            with ex ->
              Mutex.lock om;
              obs := (-1, [ -1 ]) :: !obs;
              Mutex.unlock om;
              ignore ex
          in
          let threads = List.init 3 (fun _ -> Thread.create querier ()) in
          Thread.delay 0.15;
          let gen_b = Client.with_connection addr (fun c -> Client.reload ~path:path_b c) in
          Alcotest.(check bool) "new generation" true (gen_b <> gen_a);
          List.iter Thread.join threads;
          Alcotest.(check bool) "observed something" true (!obs <> []);
          List.iter
            (fun (gen, ids) ->
              if not
                   ((gen = gen_a && ids = want_a) || (gen = gen_b && ids = want_b))
              then
                Alcotest.failf
                  "torn observation: generation %d with ids [%s]" gen
                  (String.concat ";" (List.map string_of_int ids)))
            !obs;
          (* post-swap queries answer against the new index *)
          Client.with_connection addr (fun c ->
              let gen, ids = Client.query_full c q in
              Alcotest.(check int) "serving b" gen_b gen;
              Alcotest.(check (list int)) "b's answer" want_b ids)))

(* --- live ingestion ---------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_live_server ?config ?(memtable_limit = 256) ?(probe_interval = 1.0) f =
  let dir = Filename.temp_file "xseq_live" ".store" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let log = Xlog.open_ ~memtable_limit ~probe_interval dir in
      Fun.protect
        ~finally:(fun () -> Xlog.close log)
        (fun () ->
          with_server ?config (Server.Live log) (fun srv addr ->
              f srv addr log)))

let xml_of = Xmlcore.Xml_printer.to_string

(* The full wire surface of a live store: insert, query (equal to the
   offline oracle), delete, flush, stats gauges. *)
let test_live_wire_ops () =
  with_live_server (fun srv addr _log ->
      Client.with_connection addr (fun c ->
          let ids = Array.map (fun d -> Client.insert c (xml_of d)) docs_a in
          Alcotest.(check (list int)) "dense ids" [ 0; 1; 2; 3 ]
            (Array.to_list ids);
          (* Answers equal offline Xseq over the same documents —
             including the unindexed memtable. *)
          List.iter
            (fun (q, want) ->
              Alcotest.(check (list int)) ("live " ^ q) want (Client.query c q))
            expected;
          (* Batch goes through the same path. *)
          let batch = Client.query_batch c (Array.of_list xpaths) in
          List.iteri
            (fun i (q, want) ->
              Alcotest.(check (list int)) ("batch " ^ q) want batch.(i))
            expected;
          (* Tombstone one document: answers drop exactly that id. *)
          Alcotest.(check bool) "delete" true (Client.delete c 1);
          Alcotest.(check bool) "delete again" false (Client.delete c 1);
          Alcotest.(check (list int)) "tombstone visible" [ 2 ]
            (Client.query c "/P/L/S");
          (* Flush seals the memtable: the structure generation advances
             and answers are unchanged. *)
          let gen0 = Server.generation srv in
          let gen1 = Client.flush c in
          Alcotest.(check bool) "flush advances generation" true (gen1 <> gen0);
          Alcotest.(check (list int)) "sealed answers" [ 2 ]
            (Client.query c "/P/L/S");
          (* The stats JSON carries the live gauges. *)
          let json = Client.stats c in
          Alcotest.(check int) "doc_count gauge" 3 (find_int json "doc_count");
          Alcotest.(check int) "tombstones gauge" 1
            (find_int json "tombstones")))

(* Mutation ops against a frozen backend answer Bad_request (and a
   malformed document is the client's fault, not a server crash). *)
let test_live_ops_rejected () =
  with_server (Server.Static index_a) (fun _srv addr ->
      Client.with_connection addr (fun c ->
          let check_bad what f =
            match f () with
            | _ -> Alcotest.failf "%s accepted by a static server" what
            | exception Client.Server_error (P.Bad_request, _) -> ()
          in
          check_bad "insert" (fun () -> Client.insert c "<a/>");
          check_bad "delete" (fun () -> ignore (Client.delete c 0 : bool));
          check_bad "flush" (fun () -> ignore (Client.flush c : int));
          (* the server is still fine *)
          Client.ping c));
  with_live_server (fun _srv addr _log ->
      Client.with_connection addr (fun c ->
          (match Client.insert c "<open><unclosed>" with
           | _ -> Alcotest.fail "malformed XML accepted"
           | exception Client.Server_error (P.Bad_request, _) -> ());
          (* parse errors poison nothing *)
          Alcotest.(check int) "still ingesting" 0 (Client.insert c "<P/>")))

(* Reload against a live source flushes and compacts in place while
   queries keep answering — every observation must be the oracle's
   answer, before, during and after. *)
let test_live_reload_compacts () =
  with_live_server ~memtable_limit:4 (fun srv addr log ->
      Client.with_connection addr (fun c ->
          Array.iter (fun d -> ignore (Client.insert c (xml_of d) : int)) docs_a;
          let q = "/P/L/S" in
          let want = List.assoc q expected in
          let stop = Atomic.make false in
          let failures = ref [] in
          let fm = Mutex.create () in
          let querier () =
            try
              Client.with_connection addr (fun c ->
                  while not (Atomic.get stop) do
                    let ids = Client.query c q in
                    if ids <> want then begin
                      Mutex.lock fm;
                      failures :=
                        Printf.sprintf "saw [%s]"
                          (String.concat ";" (List.map string_of_int ids))
                        :: !failures;
                      Mutex.unlock fm
                    end
                  done)
            with ex ->
              Mutex.lock fm;
              failures := Printexc.to_string ex :: !failures;
              Mutex.unlock fm
          in
          let threads = List.init 3 (fun _ -> Thread.create querier ()) in
          let gen0 = Server.generation srv in
          let gen1 = Client.reload c in
          Atomic.set stop true;
          List.iter Thread.join threads;
          (match !failures with
           | [] -> ()
           | f :: _ -> Alcotest.failf "inconsistent observation: %s" f);
          Alcotest.(check bool) "generation advanced" true (gen1 <> gen0);
          Alcotest.(check int) "compacted away" 0 (Xlog.segments log);
          Alcotest.(check (list int)) "post-compaction answer" want
            (Client.query c q)))

(* A 2-shard store over the wire: answers equal in-process
   [Xshard.query] on a seeded query set, mutations route through the
   shards, Stats carries the "sharded" block, and a write routed to a
   down shard answers [Degraded] while Health reports the shard until
   it can be re-opened. *)
let test_sharded_wire () =
  let dir = Filename.temp_file "xseq_shard" ".store" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sh = Xshard.open_ ~shards:2 ~probe_interval:infinity dir in
      Fun.protect
        ~finally:(fun () -> Xshard.close sh)
        (fun () ->
          let docs = Xdatagen.Dblp_gen.generate ~seed:11 60 in
          ignore (Xshard.insert_batch sh docs : int array);
          Xshard.flush sh;
          (* Patterns drawn from the corpus, kept when their XPath text
             parses back to the same pattern. *)
          let queries =
            Xdatagen.Query_gen.generate ~seed:5
              ~opts:{ Xdatagen.Query_gen.default_opts with size = 3 }
              docs 40
            |> List.map Xquery.Pattern.to_string
            |> List.filter (fun q ->
                   match Xquery.Xpath_parser.parse q with
                   | p -> Xquery.Pattern.to_string p = q
                   | exception _ -> false)
          in
          Alcotest.(check bool) "query set is not empty" true
            (List.length queries >= 10);
          with_server (Server.Sharded sh) (fun _srv addr ->
              Client.with_connection addr (fun c ->
                  List.iter
                    (fun q ->
                      Alcotest.(check (list int)) ("sharded " ^ q)
                        (Xshard.query_xpath sh q) (Client.query c q))
                    queries;
                  let batch = Client.query_batch c (Array.of_list queries) in
                  List.iteri
                    (fun i q ->
                      Alcotest.(check (list int)) ("batch " ^ q)
                        (Xshard.query_xpath sh q) batch.(i))
                    queries;
                  (* Insert, delete and flush go through the shards. *)
                  let marker = "/P/L/S" in
                  let id = Client.insert c (xml_of extra_doc) in
                  Alcotest.(check (list int)) "inserted visible" [ id ]
                    (Client.query c marker);
                  Alcotest.(check (list int)) "in-process agrees" [ id ]
                    (Xshard.query_xpath sh marker);
                  Alcotest.(check bool) "delete" true (Client.delete c id);
                  Alcotest.(check bool) "delete again" false
                    (Client.delete c id);
                  Alcotest.(check (list int)) "tombstone visible" []
                    (Client.query c marker);
                  Alcotest.(check int) "flush answers the generation"
                    (Xshard.generation sh) (Client.flush c);
                  let json = Client.stats c in
                  Alcotest.(check bool) "sharded block" true
                    (index_of json "\"sharded\"" <> None);
                  Alcotest.(check int) "shards" 2 (find_int json "shards");
                  Alcotest.(check int) "none down" 0
                    (find_int json "down_shards");
                  (* Down the shard the next insert routes to, and make
                     its re-open fail by putting a file where its
                     directory was: writes to it answer [Degraded], and
                     Health (which tries the re-open) stays degraded. *)
                  let s = Xshard.next_route sh in
                  let shard_dir =
                    Filename.concat dir (Printf.sprintf "shard-%03d" s)
                  in
                  Xshard.mark_down sh s "pulled for the test";
                  Sys.rename shard_dir (shard_dir ^ ".away");
                  close_out (open_out shard_dir);
                  (match Client.insert c (xml_of extra_doc) with
                   | _ -> Alcotest.fail "insert routed to a down shard accepted"
                   | exception Client.Server_error (P.Degraded, _) -> ());
                  (match
                     Client.delete c (Xshard.encode_id ~shard:s ~local:0)
                   with
                   | _ -> Alcotest.fail "delete on a down shard accepted"
                   | exception Client.Server_error (P.Degraded, _) -> ());
                  let h = Client.health c in
                  Alcotest.(check bool) "health degraded" true
                    h.Client.degraded;
                  Alcotest.(check bool) "reason names the shard" true
                    (index_of h.Client.reason (Printf.sprintf "shard %d" s)
                     <> None);
                  Alcotest.(check int) "one down" 1
                    (find_int (Client.stats c) "down_shards");
                  (* Reads keep answering from the surviving shard. *)
                  List.iter
                    (fun q ->
                      Alcotest.(check (list int)) ("partial " ^ q)
                        (Xshard.query_xpath sh q) (Client.query c q))
                    queries;
                  (* Put the directory back: the next Health re-opens
                     the shard and writes are accepted again. *)
                  Sys.remove shard_dir;
                  Sys.rename (shard_dir ^ ".away") shard_dir;
                  let h = Client.health c in
                  Alcotest.(check bool) "health recovered" false
                    h.Client.degraded;
                  let id = Client.insert c (xml_of extra_doc) in
                  Alcotest.(check (list int)) "writes re-armed" [ id ]
                    (Client.query c marker)))))

(* --- pipelining -------------------------------------------------------------- *)

(* N requests written on one connection before any response is read:
   the responses come back strictly in request order, each one the
   oracle's answer for its position.  Raw fd on purpose — no client
   machinery between the test and the wire contract. *)
let test_pipeline_in_order () =
  with_server (Server.Static index_a) (fun _srv addr ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let n = 40 in
          let reqs =
            List.init n (fun i ->
                if i mod 7 = 3 then P.Ping
                else
                  P.Query
                    {
                      xpath = List.nth xpaths (i mod List.length xpaths);
                      timeout_ms = 0;
                    })
          in
          (* One burst: every frame hits the socket before the first
             response is read. *)
          send_all fd (String.concat "" (List.map P.encode_request reqs));
          List.iteri
            (fun i req ->
              match P.read_frame fd with
              | Error _ -> Alcotest.failf "no response %d" i
              | Ok frame -> (
                match (req, P.decode_response frame) with
                | P.Ping, Ok P.Pong -> ()
                | P.Query { xpath; _ }, Ok (P.Result { ids; _ }) ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "response %d (%s)" i xpath)
                    (List.assoc xpath expected)
                    ids
                | _, Ok _ ->
                  Alcotest.failf "response %d out of order or wrong kind" i
                | _, Error m -> Alcotest.failf "response %d malformed: %s" i m))
            reqs);
      (* The client-side pipelining API sees the same contract. *)
      Client.with_connection addr (fun c ->
          let qs = List.concat [ xpaths; List.rev xpaths; xpaths ] in
          let got = Client.query_pipeline c qs in
          List.iter2
            (fun q ids ->
              Alcotest.(check (list int)) ("pipelined " ^ q)
                (List.assoc q expected)
                ids)
            qs got))

(* A hostile peer pipelines a burst whose responses far exceed the
   write-side backpressure mark, reading nothing until the whole burst
   is sent.  The server must pause the connection instead of buffering
   without bound, then — once the peer finally drains its socket —
   resume from the write path: every response arrives in order and the
   connection still answers new requests afterwards (a stranded pause
   would hang the final ping). *)
let test_backpressure_resume () =
  let big_index =
    Xseq.build (Array.init 3000 (fun _ -> e "P" [ e "L" [ e "S" [] ] ]))
  in
  let q = "/P/L/S" in
  let want = Xseq.query_xpath big_index q in
  (* The whole burst is admitted at decode time, before any worker gets
     to run: max_pending must cover it or the tail answers Overloaded. *)
  let config = { Server.default_config with max_pending = 128 } in
  with_server ~config (Server.Static big_index) (fun _srv addr ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* A stranded server means reads block forever; fail instead. *)
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
          let n = 100 in
          (* ~24 KB of ids per response: the burst owes ~2.4 MB, well
             past the 1 MiB high-water mark plus the socket buffers.
             The requests themselves are a few KB, so this send cannot
             deadlock against the paused server. *)
          let req = P.encode_request (P.Query { xpath = q; timeout_ms = 0 }) in
          send_all fd (String.concat "" (List.init n (fun _ -> req)));
          for i = 0 to n - 1 do
            match P.read_frame fd with
            | Error _ -> Alcotest.failf "no response %d" i
            | Ok frame -> (
              match P.decode_response frame with
              | Ok (P.Result { ids; _ }) ->
                if ids <> want then
                  Alcotest.failf "response %d has wrong ids (%d of them)" i
                    (List.length ids)
              | Ok _ -> Alcotest.failf "response %d is not a Result" i
              | Error m -> Alcotest.failf "response %d malformed: %s" i m)
          done;
          (* The peer has drained everything: reading must have resumed. *)
          send_all fd (P.encode_request P.Ping);
          match P.read_frame fd with
          | Error _ -> Alcotest.fail "no pong after backpressure"
          | Ok frame -> (
            match P.decode_response frame with
            | Ok P.Pong -> ()
            | _ -> Alcotest.fail "expected Pong after backpressure")))

(* A single request whose result cannot fit a response frame (a batch
   matching > max_payload bytes of ids) answers a [Server_error] frame
   instead of stranding the client, and the connection stays usable for
   the requests pipelined behind it. *)
let test_oversized_result () =
  let big_index =
    Xseq.build (Array.init 3000 (fun _ -> e "P" [ e "L" [ e "S" [] ] ]))
  in
  let q = "/P/L/S" in
  let want = Xseq.query_xpath big_index q in
  with_server (Server.Static big_index) (fun _srv addr ->
      Client.with_connection addr (fun c ->
          (* 800 sub-queries x 3000 ids x 8 bytes ≈ 19 MB > the 16 MiB
             payload cap. *)
          (match Client.query_batch c (Array.make 800 q) with
           | _ -> Alcotest.fail "expected Server_error for oversized result"
           | exception Client.Server_error (P.Server_error, msg) ->
             Alcotest.(check bool) "message names the cap" true
               (String.length msg > 0));
          (* The connection survives: the slot was answered, not leaked. *)
          Client.ping c;
          Alcotest.(check (list int)) "normal query still answers" want
            (Client.query c q)))

(* A hot swap in the middle of a pipelined burst: every query answer is
   old-consistent or new-consistent — never torn — and the burst's
   responses still arrive in request order. *)
let test_pipeline_hot_swap () =
  let path_a = Filename.temp_file "xseq_pipe_a" ".idx" in
  let path_b = Filename.temp_file "xseq_pipe_b" ".idx" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path_a; path_b ])
    (fun () ->
      let q = "/P/L/S" in
      Xseq.save index_a path_a;
      let index_b = Xseq.build (Array.append docs_a [| extra_doc |]) in
      Xseq.save index_b path_b;
      let want_a = Xseq.query_xpath index_a q in
      let want_b = Xseq.query_xpath index_b q in
      with_server (Server.Snapshot path_a) (fun srv addr ->
          let gen_a = Server.generation srv in
          Client.with_connection addr (fun c ->
              let query = P.Query { xpath = q; timeout_ms = 0 } in
              let burst =
                [ query; query; P.Reload (Some path_b); query; query; query ]
              in
              let resps = Client.pipeline c burst in
              Alcotest.(check int) "one response per request"
                (List.length burst) (List.length resps);
              let gen_b = ref (-1) in
              List.iteri
                (fun i (req, resp) ->
                  match (req, resp) with
                  | P.Reload _, P.Reloaded { generation } ->
                    Alcotest.(check bool) "swap advanced the generation" true
                      (generation <> gen_a);
                    gen_b := generation
                  | P.Query _, P.Result { generation; ids } ->
                    if
                      not
                        ((generation = gen_a && ids = want_a)
                        || (generation <> gen_a && ids = want_b))
                    then
                      Alcotest.failf
                        "torn mid-pipeline observation at %d: generation %d \
                         with ids [%s]"
                        i generation
                        (String.concat ";" (List.map string_of_int ids))
                  | _ ->
                    Alcotest.failf "response %d out of order or wrong kind" i)
                (List.combine burst resps);
              (* After the burst the swap is complete: a synchronous query
                 answers against the new index. *)
              let gen, ids = Client.query_full c q in
              Alcotest.(check int) "serving the new index" !gen_b gen;
              Alcotest.(check (list int)) "new answer" want_b ids)))

(* The store flips to degraded in the middle of a burst: the mutating
   requests answer [Degraded] error frames *as values*, the queries
   around them keep answering the oracle, and the response order still
   matches the request order.  One connection, one write, no retries. *)
let test_pipeline_degraded_flip () =
  with_live_server ~probe_interval:infinity (fun _srv addr _log ->
      Client.with_connection addr (fun c ->
          Array.iter (fun d -> ignore (Client.insert c (xml_of d) : int)) docs_a;
          let q = "/P/L/S" in
          let want = List.assoc q expected in
          let rules =
            List.init 10 (fun i ->
                { Xfault.at = i; on = Xfault.Write; fault = Xfault.Enospc })
            @ List.init 5 (fun i ->
                  { Xfault.at = i; on = Xfault.Fsync; fault = Xfault.Enospc })
            @ List.init 5 (fun i ->
                  { Xfault.at = i; on = Xfault.Open; fault = Xfault.Enospc })
          in
          Xfault.install (Xfault.Injector.create rules);
          Fun.protect ~finally:Xfault.uninstall (fun () ->
              let query = P.Query { xpath = q; timeout_ms = 0 } in
              let burst =
                [
                  query;
                  P.Insert { xml = "<P/>" };
                  query;
                  P.Delete { id = 0 };
                  query;
                ]
              in
              match Client.pipeline c burst with
              | [
               P.Result { ids = r1; _ };
               P.Error { code = c1; _ };
               P.Result { ids = r2; _ };
               P.Error { code = c2; _ };
               P.Result { ids = r3; _ };
              ] ->
                List.iter
                  (fun ids ->
                    Alcotest.(check (list int)) "query answers through the flip"
                      want ids)
                  [ r1; r2; r3 ];
                Alcotest.(check bool) "insert refused as Degraded" true
                  (c1 = P.Degraded);
                Alcotest.(check bool) "delete refused as Degraded" true
                  (c2 = P.Degraded)
              | resps ->
                Alcotest.failf "unexpected response sequence (%d frames)"
                  (List.length resps));
          (* Fault cleared: the health probe re-arms the write path and
             the refused insert consumed no id. *)
          let h = Client.health c in
          Alcotest.(check bool) "recovered" false h.Client.degraded;
          Alcotest.(check int) "no id leaked by the refused insert"
            (Array.length docs_a)
            (Client.insert c "<P/>")))

(* Several accept shards over a shared Unix-domain listener: every loop
   owns its own readiness set and connections spread across them; the
   answers and the configuration gauge are unchanged. *)
let test_accept_shards_serving () =
  let config = { Server.default_config with accept_shards = 3 } in
  with_server ~config (Server.Static index_a) (fun srv addr ->
      let failures = ref [] in
      let fm = Mutex.create () in
      let querier k () =
        try
          Client.with_connection addr (fun c ->
              for i = 0 to 19 do
                let q = List.nth xpaths ((i + k) mod List.length xpaths) in
                if Client.query c q <> List.assoc q expected then begin
                  Mutex.lock fm;
                  failures := Printf.sprintf "thread %d: %s wrong" k q :: !failures;
                  Mutex.unlock fm
                end
              done)
        with ex ->
          Mutex.lock fm;
          failures := Printexc.to_string ex :: !failures;
          Mutex.unlock fm
      in
      let threads = List.init 6 (fun k -> Thread.create (querier k) ()) in
      List.iter Thread.join threads;
      Alcotest.(check (list string)) "no failures" [] !failures;
      let json = Server.stats_json srv in
      Alcotest.(check int) "accept_shards gauge" 3
        (find_int json "accept_shards"))

(* SIGTERM triggers the same orderly shutdown as [stop]: listeners
   close, the Unix socket file is unlinked, and [wait] returns. *)
let test_sigterm_shutdown () =
  let path = tmp_sock () in
  let srv = Server.create (Server.Static index_a) in
  Server.start srv [ Server.Unix_sock path ];
  Client.with_connection (Server.Unix_sock path) (fun c -> Client.ping c);
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Server.wait srv;
  Alcotest.(check bool) "socket unlinked on SIGTERM" false
    (Sys.file_exists path);
  (* stop after the signal-driven shutdown is a harmless no-op *)
  Server.stop srv

(* --- health, degradation, fault tolerance ----------------------------------- *)

(* The Health op round-trips: a static backend is never degraded and
   reports its true generation and document count. *)
let test_health_roundtrip () =
  with_server (Server.Static index_a) (fun srv addr ->
      Client.with_connection addr (fun c ->
          let h = Client.health c in
          Alcotest.(check bool) "not degraded" false h.Client.degraded;
          Alcotest.(check string) "no reason" "" h.Client.reason;
          Alcotest.(check int) "doc count" (Array.length docs_a)
            h.Client.doc_count;
          Alcotest.(check int) "generation" (Server.generation srv)
            h.Client.generation))

(* Disk full under a live server: writes answer [Degraded] frames,
   queries keep serving the exact oracle answers, Health and the stats
   JSON expose the state, and once the fault clears the health probe
   re-arms the write path — all over the wire. *)
let test_degraded_serving () =
  with_live_server ~probe_interval:infinity (fun _srv addr log ->
      Client.with_connection addr (fun c ->
          Array.iter (fun d -> ignore (Client.insert c (xml_of d) : int)) docs_a;
          (* The disk goes bad: every file write / fsync / open refuses
             with ENOSPC (sockets are a separate fault class, so the
             wire stays healthy). *)
          let rules =
            List.init 10 (fun i ->
                { Xfault.at = i; on = Xfault.Write; fault = Xfault.Enospc })
            @ List.init 5 (fun i ->
                  { Xfault.at = i; on = Xfault.Fsync; fault = Xfault.Enospc })
            @ List.init 5 (fun i ->
                  { Xfault.at = i; on = Xfault.Open; fault = Xfault.Enospc })
          in
          Xfault.install (Xfault.Injector.create rules);
          Fun.protect ~finally:Xfault.uninstall (fun () ->
              (match Client.insert c "<P/>" with
               | _ -> Alcotest.fail "insert accepted on a full disk"
               | exception Client.Server_error (P.Degraded, _) -> ());
              (* Queries keep answering, and correctly. *)
              List.iter
                (fun (q, want) ->
                  Alcotest.(check (list int)) ("degraded " ^ q) want
                    (Client.query c q))
                expected;
              (* Health reports the state (its in-handler recovery probe
                 fails while the disk is still refusing). *)
              let h = Client.health c in
              Alcotest.(check bool) "reported degraded" true h.Client.degraded;
              Alcotest.(check bool) "reason present" true (h.Client.reason <> "");
              Alcotest.(check bool) "stats gauge" true
                (index_of (Client.stats c) "\"degraded\": true" <> None);
              (match Client.delete c 0 with
               | _ -> Alcotest.fail "delete accepted on a full disk"
               | exception Client.Server_error (P.Degraded, _) -> ()));
          (* Space freed: the next health probe recovers the store. *)
          let h = Client.health c in
          Alcotest.(check bool) "recovered" false h.Client.degraded;
          Alcotest.(check bool) "store healthy" true
            (Xlog.degraded_reason log = None);
          (* Ingestion resumes, and the refused insert consumed no id. *)
          Alcotest.(check int) "ingestion resumed, no id leaked"
            (Array.length docs_a)
            (Client.insert c "<P><L><S/></L></P>");
          Alcotest.(check (list int)) "new doc answers" [ 1; 2; 4 ]
            (Client.query c "/P/L/S")))

(* An unknown request opcode answers [Unsupported] without dropping the
   connection: old servers survive new clients. *)
let test_unknown_op_keeps_connection () =
  with_server (Server.Static index_a) (fun _srv addr ->
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          P.write_frame fd (P.encode_request (P.Unknown { op = 0x42 }));
          (match P.read_frame fd with
           | Ok r -> (
             match P.decode_response r with
             | Ok (P.Error { code = P.Unsupported; _ }) -> ()
             | Ok _ -> Alcotest.fail "expected an Unsupported error frame"
             | Error m -> Alcotest.failf "bad response: %s" m)
           | Error _ -> Alcotest.fail "no response to the unknown op");
          (* The same connection still answers. *)
          P.write_frame fd (P.encode_request P.Ping);
          match P.read_frame fd with
          | Ok r -> (
            match P.decode_response r with
            | Ok P.Pong -> ()
            | _ -> Alcotest.fail "expected Pong after the unknown op")
          | Error _ -> Alcotest.fail "connection dropped after the unknown op"))

let quick_policy =
  {
    Client.default_policy with
    Client.attempts = 6;
    backoff = { Xserver.Backoff.base_ms = 1; cap_ms = 10; factor = 2.0 };
  }

(* The self-healing client rides through a full server restart: the
   connection dies, the client reconnects and replays the (idempotent)
   query against the new instance. *)
let test_client_rides_restart () =
  let path = tmp_sock () in
  let srv1 = Server.create (Server.Static index_a) in
  Server.start srv1 [ Server.Unix_sock path ];
  let c = Client.connect ~policy:quick_policy ~seed:7 (Server.Unix_sock path) in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let q = "/P/R/L" in
      let want = List.assoc q expected in
      Alcotest.(check (list int)) "before restart" want (Client.query c q);
      Server.stop srv1;
      let srv2 = Server.create (Server.Static index_a) in
      Server.start srv2 [ Server.Unix_sock path ];
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv2;
          try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          (* The old fd is dead; the query must transparently reconnect. *)
          Alcotest.(check (list int)) "after restart" want (Client.query c q);
          Client.ping c))

(* At-most-once for mutations: a server that dies after reading the
   request must see an Insert exactly once (the client refuses to
   replay it), while a Query is replayed on a fresh connection. *)
let test_at_most_once_mutations () =
  let path = tmp_sock () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let frames = Atomic.make 0 in
  let stop = Atomic.make false in
  let acceptor =
    Thread.create
      (fun () ->
        let rec loop () =
          match Unix.accept listener with
          | fd, _ ->
            (* Read one frame, count it, slam the door: the worst kind
               of peer — it may have applied the request. *)
            (match P.read_frame fd with
             | Ok _ -> Atomic.incr frames
             | Error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            if not (Atomic.get stop) then loop ()
          | exception Unix.Unix_error _ -> ()
        in
        loop ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (* Wake the acceptor with a throwaway connection, then reap it. *)
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect fd (Unix.ADDR_UNIX path)
          with Unix.Unix_error _ -> ());
         Unix.close fd
       with Unix.Unix_error _ -> ());
      Thread.join acceptor;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Client.connect ~policy:quick_policy ~seed:11 (Server.Unix_sock path) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match Client.insert c "<P/>" with
           | _ -> Alcotest.fail "insert cannot succeed against this peer"
           | exception Client.Protocol_error _ -> ());
          Alcotest.(check int) "insert sent exactly once" 1 (Atomic.get frames);
          (match Client.query c "/P" with
           | _ -> Alcotest.fail "query cannot succeed against this peer"
           | exception Client.Protocol_error _ -> ());
          Alcotest.(check bool) "query was replayed" true
            (Atomic.get frames - 1 >= 2)))

(* --- lifecycle -------------------------------------------------------------- *)

let test_clean_shutdown () =
  let path = tmp_sock () in
  let srv = Server.create (Server.Static index_a) in
  Server.start srv [ Server.Unix_sock path ];
  Client.with_connection (Server.Unix_sock path) (fun c ->
      Client.ping c;
      ignore (Client.query c "/P/R/L"));
  Server.stop srv;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let test_addr_parse () =
  let check s want =
    match Server.addr_of_string s with
    | Ok got -> Alcotest.(check string) s want (Server.addr_to_string got)
    | Error m -> Alcotest.failf "%s: %s" s m
  in
  check "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  check "/tmp/x.sock" "unix:/tmp/x.sock";
  check "localhost:7070" "localhost:7070";
  check ":7070" "127.0.0.1:7070";
  List.iter
    (fun s ->
      match Server.addr_of_string s with
      | Ok _ -> Alcotest.failf "%s should not parse" s
      | Error _ -> ())
    [ "nonsense"; "host:notaport"; "host:0"; "host:99999" ]

let () =
  Alcotest.run "xserver"
    [
      ( "round trips",
        [
          Alcotest.test_case "wire = offline" `Quick test_roundtrip;
          Alcotest.test_case "bad xpath" `Quick test_bad_xpath;
          Alcotest.test_case "self step is a bad request" `Quick test_self_step;
          Alcotest.test_case "identical predicates stay bounded" `Quick
            test_identical_predicates_bounded;
          Alcotest.test_case "address parsing" `Quick test_addr_parse;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "clients + hostile peers" `Quick
            test_concurrent_and_hostile;
          Alcotest.test_case "overload sheds, stays up" `Quick test_overload;
          Alcotest.test_case "deadline answers Timeout" `Quick test_timeout;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics reconcile" `Quick test_metrics_reconcile;
          Alcotest.test_case "plan cache hits" `Quick test_plan_cache;
          Alcotest.test_case "reload invalidates plans" `Quick
            test_plan_cache_invalidated_by_reload;
        ] );
      ( "hot swap",
        [
          Alcotest.test_case "snapshot swap is consistent" `Quick
            test_reload_hot_swap;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "responses in request order" `Quick
            test_pipeline_in_order;
          Alcotest.test_case "hot swap mid-pipeline" `Quick
            test_pipeline_hot_swap;
          Alcotest.test_case "degraded flip mid-pipeline" `Quick
            test_pipeline_degraded_flip;
          Alcotest.test_case "backpressure pauses and resumes" `Quick
            test_backpressure_resume;
          Alcotest.test_case "oversized result answers Server_error" `Quick
            test_oversized_result;
          Alcotest.test_case "accept shards serve correctly" `Quick
            test_accept_shards_serving;
          Alcotest.test_case "SIGTERM unlinks and stops" `Quick
            test_sigterm_shutdown;
        ] );
      ( "live ingestion",
        [
          Alcotest.test_case "wire ops mutate the store" `Quick
            test_live_wire_ops;
          Alcotest.test_case "mutations rejected when not live" `Quick
            test_live_ops_rejected;
          Alcotest.test_case "reload compacts under queries" `Quick
            test_live_reload_compacts;
          Alcotest.test_case "sharded store over the wire" `Quick
            test_sharded_wire;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "health round trip" `Quick test_health_roundtrip;
          Alcotest.test_case "disk full serves read-only" `Quick
            test_degraded_serving;
          Alcotest.test_case "unknown op keeps the connection" `Quick
            test_unknown_op_keeps_connection;
          Alcotest.test_case "client rides a server restart" `Quick
            test_client_rides_restart;
          Alcotest.test_case "mutations are at-most-once" `Quick
            test_at_most_once_mutations;
        ] );
      ( "lifecycle",
        [ Alcotest.test_case "clean shutdown" `Quick test_clean_shutdown ] );
    ]
