(* The wire transcript.  A fixed request script runs against three
   servers: a live primary with replication hooks (semi-sync, one
   replica), a live node without hooks, and a static index.  Every
   response is decoded and rendered to one line, with generations
   normalised to "G" and WAL batch and snapshot bytes shown by length
   and digest.  The lines must equal the transcript below, so a change
   to dispatch, the subscription pump, semi-sync parking or the
   snapshot sender that moves one byte of one answer fails here. *)

module T = Xmlcore.Xml_tree
module P = Xserver.Protocol
module Server = Xserver.Server

let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let tmp_path suffix =
  let path = Filename.temp_file "xseq_wire" suffix in
  Sys.remove path;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* Long titles make the seeded snapshot span several transfer chunks
   and more than the server's output high-water mark, so the sender
   refills behind backpressure. *)
let doc i =
  T.elt "article"
    [
      T.elt "author" [ T.text (Printf.sprintf "writer%d" (i mod 50)) ];
      T.elt "title"
        [
          T.text
            (String.concat " " (List.init 40 (fun j -> string_of_int (i * j))));
        ];
    ]

let pos = Xlog.Wal.position_to_string

let render = function
  | P.Pong -> "pong"
  | P.Result { ids; _ } ->
    Printf.sprintf "result G %d ids, first %s" (List.length ids)
      (String.concat ","
         (List.map string_of_int (List.filteri (fun i _ -> i < 5) ids)))
  | P.Batch_result { ids; _ } ->
    Printf.sprintf "batch_result G [%s]"
      (String.concat ";"
         (Array.to_list
            (Array.map (fun l -> string_of_int (List.length l)) ids)))
  | P.Stats_json _ -> "stats"
  | P.Reloaded _ -> "reloaded G"
  | P.Error { code; message } ->
    Printf.sprintf "error %s %S" (P.error_code_to_string code) message
  | P.Inserted { id } -> Printf.sprintf "inserted %d" id
  | P.Deleted { existed } -> Printf.sprintf "deleted %b" existed
  | P.Flushed _ -> "flushed G"
  | P.Health_status { degraded; reason; doc_count; _ } ->
    Printf.sprintf "health degraded=%b %S G docs=%d" degraded reason doc_count
  | P.Wal_batch { epoch; from; next; count; records } ->
    Printf.sprintf "wal_batch epoch=%d %s..%s count=%d bytes=%d md5=%s" epoch
      (pos from) (pos next) count (String.length records)
      (Digest.to_hex (Digest.string records))
  | P.Repl_heartbeat { epoch; durable; next_id } ->
    Printf.sprintf "heartbeat epoch=%d durable=%s next_id=%d" epoch
      (pos durable) next_id
  | P.Promoted { epoch } -> Printf.sprintf "promoted %d" epoch
  | P.Repl_state
      { role; epoch; durable; next_id; leader_hint; lag_records; lag_bytes } ->
    Printf.sprintf
      "repl_state %s epoch=%d durable=%s next_id=%d hint=%S lag=%d/%d"
      (match role with `Primary -> "primary" | `Follower -> "follower")
      epoch (pos durable) next_id leader_hint lag_records lag_bytes
  | P.Snapshot_chunk { token; total; offset; last; crc; data } ->
    Printf.sprintf "chunk %s total=%d offset=%d last=%b crc=%016Lx len=%d"
      token total offset last crc (String.length data)

(* --- the script's plumbing ------------------------------------------------ *)

let lines = ref []
let say s = lines := s :: !lines

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let send fd req = P.write_frame fd (P.encode_request req)

let readable ?(timeout = 10.) fds =
  match Unix.select fds [] [] timeout with
  | [], _, _ -> Alcotest.fail "no answer within the timeout"
  | r, _, _ -> r

(* The next frame on [fd], decoded; [None] at end of stream. *)
let recv fd =
  ignore (readable [ fd ] : Unix.file_descr list);
  match P.read_frame fd with
  | Error _ -> None
  | Ok frame -> (
    match P.decode_response frame with
    | Ok r -> Some r
    | Error m -> Alcotest.fail ("undecodable response: " ^ m))

let say_next tag fd =
  say (tag ^ ": " ^ match recv fd with Some r -> render r | None -> "eof")

let ask tag fd req =
  send fd req;
  say_next tag fd

(* The next frame the subscription pushes that is not an idle heartbeat
   (those come on a clock, so the script does not pin them). *)
let rec next_push sub =
  match recv sub with
  | Some (P.Repl_heartbeat _) -> next_push sub
  | r -> r

(* A mutation on [c] under semi-sync: the primary ships the record to
   the subscriber [sub] and parks the answer until [sub] acknowledges
   it ([ack = false] leaves the answer to the ack timeout).  The
   subscription is read first whenever it has a frame, so a batch is
   always rendered before the answer it releases; an idle heartbeat is
   read and skipped without waiting for another push. *)
let mutate ?(ack = true) tag c sub req =
  send c req;
  let rec go () =
    if List.mem sub (readable [ c; sub ]) then begin
      (match recv sub with
       | Some (P.Repl_heartbeat _) -> ()
       | Some (P.Wal_batch { next; _ } as b) ->
         say ("sub: " ^ render b);
         if ack then send sub (P.Wal_ack { pos = next })
       | Some r -> say ("sub: " ^ render r)
       | None -> Alcotest.fail "subscription closed");
      go ()
    end
    else say_next tag c
  in
  go ()

(* A whole snapshot stream, chunk by chunk, until [last] or an error. *)
let fetch tag c ~token ~cursor =
  send c (P.Fetch_snapshot { token; cursor });
  let rec go () =
    match recv c with
    | Some (P.Snapshot_chunk { last; _ } as r) ->
      say (tag ^ ": " ^ render r);
      if not last then go ()
    | Some r -> say (tag ^ ": " ^ render r)
    | None -> say (tag ^ ": eof")
  in
  go ()

let serve ?repl source =
  let sock = tmp_path ".sock" in
  let config = { Server.default_config with workers = 1; repl } in
  let srv = Server.create ~config source in
  Server.start srv [ Server.Unix_sock sock ];
  (srv, sock)

(* --- the script ---------------------------------------------------------- *)

let primary_script log sock role =
  let c = connect sock in
  ask "c" c P.Ping;
  ask "c" c (P.Query { xpath = "//author"; timeout_ms = 0 });
  ask "c" c
    (P.Query_batch
       {
         xpaths = [| "//article/author"; "//title"; "//nothing" |];
         timeout_ms = 0;
       });
  ask "c" c (P.Query { xpath = "//author["; timeout_ms = 0 });
  ask "c" c (P.Query_batch { xpaths = [| "//author"; "/[" |]; timeout_ms = 0 });
  ask "c" c (P.Unknown { op = 0x42 });
  ask "c" c P.Stats;
  ask "c" c P.Health;
  ask "c" c P.Repl_status;
  let bounded min_gen =
    P.Query_bounded { xpath = "//author"; timeout_ms = 0; min_gen }
  in
  ask "c" c (bounded 10);
  ask "c" c (bounded 1_000_000);
  ask "c" c P.Promote;
  (* A cursor in a file the seed rotated away from. *)
  let s0 = connect sock in
  ask "s0" s0 (P.Subscribe { epoch = 1; pos = Xlog.Wal.start_position });
  say_next "s0" s0;
  Unix.close s0;
  (* A live subscription from the log end. *)
  let sub = connect sock in
  send sub (P.Subscribe { epoch = 1; pos = Xlog.wal_position log });
  say_next "sub" sub;
  (* Answers on a subscribed connection; an idle heartbeat may come
     first on a slow machine and is skipped. *)
  let ask_sub req =
    send sub req;
    say ("sub: " ^ match next_push sub with Some r -> render r | None -> "eof")
  in
  ask_sub (P.Subscribe { epoch = 1; pos = Xlog.wal_position log });
  ask_sub (P.Fetch_snapshot { token = ""; cursor = 0 });
  mutate "c" c sub
    (P.Insert
       { xml = "<article><author>new</author><title>t</title></article>" });
  mutate "c" c sub (P.Delete { id = 3 });
  mutate "c" c sub (P.Delete { id = 3 });
  mutate "c" c sub (P.Insert { xml = "<article><author>" });
  mutate "c" c sub P.Flush;
  ask "c" c (P.Query { xpath = "//author"; timeout_ms = 0 });
  mutate ~ack:false "c" c sub
    (P.Insert { xml = "<book><author>late</author></book>" });
  (* Deposed: mutations and subscriptions name the leader, and the
     live subscription is told so and closed. *)
  role := `Follower;
  ask "c" c (P.Insert { xml = "<a/>" });
  (match next_push sub with
   | Some r -> say ("sub: " ^ render r)
   | None -> say "sub: eof");
  say_next "sub" sub;
  Unix.close sub;
  let s1 = connect sock in
  ask "s1" s1 (P.Subscribe { epoch = 1; pos = Xlog.wal_position log });
  Unix.close s1;
  ask "c" c P.Repl_status;
  role := `Primary;
  (* A snapshot stream from the start, then a resume near its end, then
     a stale token, which restarts at offset 0. *)
  let total = ref 0 and token = ref "" in
  send c (P.Fetch_snapshot { token = "stale"; cursor = 17 });
  let rec first () =
    match recv c with
    | Some (P.Snapshot_chunk { last; total = n; token = tk; _ } as r) ->
      say ("c: " ^ render r);
      total := n;
      token := tk;
      if not last then first ()
    | r -> say ("c: " ^ match r with Some r -> render r | None -> "eof")
  in
  first ();
  fetch "c" c ~token:!token ~cursor:(!total - 1000);
  fetch "c" c ~token:!token ~cursor:(!total + 1);
  ask "c" c P.Ping;
  Unix.close c;
  (* A WAL ack on a connection that never subscribed is dropped. *)
  let w = connect sock in
  send w (P.Wal_ack { pos = Xlog.Wal.start_position });
  ask "w" w P.Ping;
  Unix.close w;
  (* Bytes that are not a frame, then a frame that is not a request:
     one error each, then the connection closes. *)
  let x = connect sock in
  ignore (Unix.write_substring x "garbage!garbage!" 0 16 : int);
  say_next "x" x;
  say_next "x" x;
  Unix.close x;
  let y = connect sock in
  P.write_frame y (P.encode_response P.Pong);
  say_next "y" y;
  say_next "y" y;
  Unix.close y

let plain_script sock =
  let c = connect sock in
  ask "plain" c (P.Subscribe { epoch = 0; pos = Xlog.Wal.start_position });
  ask "plain" c (P.Wal_ack { pos = Xlog.Wal.start_position });
  ask "plain" c P.Promote;
  ask "plain" c P.Repl_status;
  ask "plain" c
    (P.Query_bounded { xpath = "//author"; timeout_ms = 0; min_gen = 1 });
  ask "plain" c (P.Insert { xml = "<article><author>x</author></article>" });
  fetch "plain" c ~token:"" ~cursor:0;
  ask "plain" c P.Ping;
  Unix.close c

let static_script sock =
  let c = connect sock in
  ask "static" c (P.Fetch_snapshot { token = ""; cursor = 0 });
  ask "static" c (P.Insert { xml = "<a/>" });
  ask "static" c P.Flush;
  ask "static" c (P.Query { xpath = "//a"; timeout_ms = 0 });
  Unix.close c

let run_script () =
  lines := [];
  let pdir = tmp_path ".primary" and qdir = tmp_path ".plain" in
  let log = Xlog.open_ ~sync_every:1 ~max_segments:64 pdir in
  ignore (Xlog.seed log (Array.init 4000 doc) : int array);
  let role = ref `Primary and epoch = ref 1 in
  let hooks =
    {
      Server.repl_log = log;
      repl_role = (fun () -> !role);
      repl_epoch = (fun () -> !epoch);
      repl_leader_hint =
        (fun () ->
          match !role with `Primary -> "" | `Follower -> "unix:leader");
      repl_promote = (fun () -> role := `Primary; Ok !epoch);
      repl_observe_epoch =
        (fun e ->
          if e > !epoch then begin
            epoch := e;
            role := `Follower
          end);
      repl_lag = (fun () -> (0, 0));
      repl_sync_replicas = 1;
      repl_ack_timeout_ms = 2000;
    }
  in
  let plain = Xlog.open_ ~sync_every:1 qdir in
  let servers =
    [
      serve ~repl:hooks (Server.Live log);
      serve (Server.Live plain);
      serve (Server.Static (Xseq.build [| T.elt "a" [] |]));
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (srv, sock) ->
          Server.stop srv;
          try Sys.remove sock with Sys_error _ -> ())
        servers;
      Xlog.close log;
      Xlog.close plain;
      rm_rf pdir;
      rm_rf qdir)
    (fun () ->
      match servers with
      | [ (_, p); (_, q); (_, s) ] ->
        primary_script log p role;
        plain_script q;
        static_script s
      | _ -> assert false);
  List.rev !lines

let transcript =
  [
    "c: pong";
    "c: result G 4000 ids, first 0,1,2,3,4";
    "c: batch_result G [4000;4000;0]";
    "c: error bad_request \"expected a name at position 9 in \\\"//author[\\\"\"";
    "c: error bad_request \"expected a name at position 1 in \\\"/[\\\"\"";
    "c: error unsupported \"request opcode 0x42 is not supported by this server\"";
    "c: stats";
    "c: health degraded=false \"\" G docs=4000";
    "c: repl_state primary epoch=1 durable=(1, 8) next_id=4000 hint=\"\" lag=0/0";
    "c: result G 4000 ids, first 0,1,2,3,4";
    "c: error not_primary \"\"";
    "c: promoted 1";
    "s0: heartbeat epoch=1 durable=(1, 8) next_id=4000";
    "s0: error pruned \"wal pruned past the subscription; earliest retained position is (1, 8)\"";
    "sub: heartbeat epoch=1 durable=(1, 8) next_id=4000";
    "sub: error bad_request \"connection is already subscribed\"";
    "sub: error bad_request \"connection is subscribed to the WAL stream\"";
    "sub: wal_batch epoch=1 (1, 8)..(1, 88) count=1 bytes=80 md5=48416337ea09d200ace9aecaa9adc8bd";
    "c: inserted 4000";
    "sub: wal_batch epoch=1 (1, 88)..(1, 109) count=1 bytes=21 md5=3e37e27454af1d025cc38c5ee2caf69d";
    "c: deleted true";
    "c: deleted false";
    "c: error bad_request \"XML parse error at line 1 (byte 17): unterminated element content\"";
    "c: flushed G";
    "c: result G 4000 ids, first 0,1,2,4,5";
    "sub: wal_batch epoch=1 (1, 109)..(1, 167) count=1 bytes=58 md5=70c2395fd556d689231453205de31204";
    "c: error timeout \"replicated to fewer than 1 replica(s) within 2000ms (the write is applied locally; its replication is indeterminate)\"";
    "c: error not_primary \"unix:leader\"";
    "sub: error not_primary \"unix:leader\"";
    "sub: eof";
    "s1: error not_primary \"unix:leader\"";
    "c: repl_state follower epoch=1 durable=(1, 167) next_id=4002 hint=\"unix:leader\" lag=0/0";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=0 last=false crc=95d53f99793809e6 len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=262144 last=false crc=578585d25c31944a len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=524288 last=false crc=8e10e090248920ba len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=786432 last=false crc=a290405e112cf4a5 len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=1048576 last=false crc=dfe86160161493ee len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=1310720 last=false crc=33f9b2719695ae93 len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=1572864 last=true crc=3ea8eaa7f53bb6ba len=112040";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=1683904 last=true crc=e4ca207b8be332e4 len=1000";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=0 last=false crc=95d53f99793809e6 len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=262144 last=false crc=578585d25c31944a len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=524288 last=false crc=8e10e090248920ba len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=786432 last=false crc=a290405e112cf4a5 len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=1048576 last=false crc=dfe86160161493ee len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=1310720 last=false crc=33f9b2719695ae93 len=262144";
    "c: chunk 810de3b70f9a23b6 total=1684904 offset=1572864 last=true crc=3ea8eaa7f53bb6ba len=112040";
    "c: pong";
    "w: pong";
    "x: error bad_request \"bad frame: bad magic \\\"ga\\\"\"";
    "x: eof";
    "y: error bad_request \"bad frame: response opcode 0x80 in a request\"";
    "y: eof";
    "plain: error unsupported \"this server has no replication role\"";
    "plain: error unsupported \"this server has no replication role\"";
    "plain: error unsupported \"this server has no replication role\"";
    "plain: error unsupported \"this server has no replication role\"";
    "plain: error unsupported \"this server has no replication role (bounded-staleness reads need one)\"";
    "plain: inserted 0";
    "plain: chunk empty total=16 offset=0 last=true crc=540e6b7332dead91 len=16";
    "plain: pong";
    "static: error unsupported \"snapshot transfer requires serving a live store\"";
    "static: error bad_request \"server is not serving a live store\"";
    "static: error bad_request \"server is not serving a live store\"";
    "static: result G 1 ids, first 0";
  ]

let test_transcript () =
  let got = run_script () in
  Alcotest.(check (list string)) "wire transcript" transcript got

let () =
  Alcotest.run "wire"
    [
      ( "transcript",
        [ Alcotest.test_case "fixed script" `Quick test_transcript ] );
    ]
