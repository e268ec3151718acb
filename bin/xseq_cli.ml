(* xseq command-line tool.

   Examples:
     xseq gen --kind dblp -n 1000 -o records.xml
     xseq stats records.xml
     xseq sequence records.xml --strategy depth-first --limit 3
     xseq query records.xml "//author[text='David Maier']" --show 2 *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* An input is either a saved index (columnar store magic, or that of
   the older container, which the load refuses by name) or an XML record
   file. *)
let is_index_file path =
  match open_in_bin path with
  | ic ->
    let ok =
      try
        let m = really_input_string ic 8 in
        m = "xseqcol1" || m = "xseqcol2"
      with End_of_file -> false
    in
    close_in ic;
    ok
  | exception Sys_error _ -> false

let load_documents path =
  match Xmlcore.Xml_parser.parse_fragments (read_file path) with
  | docs -> Array.of_list docs
  | exception Xmlcore.Xml_parser.Parse_error { line; msg; _ } ->
    Printf.eprintf "%s:%d: parse error: %s\n" path line msg;
    exit 1

let strategy_conv =
  let parse = function
    | "probability" | "prob" -> Ok `Probability
    | "depth-first" | "df" -> Ok `Depth_first
    | "breadth-first" | "bf" -> Ok `Breadth_first
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
       | `Probability -> "probability"
       | `Depth_first -> "depth-first"
       | `Breadth_first -> "breadth-first")
  in
  Arg.conv (parse, print)

(* A snapshot the store rejects (bad checksum, truncation, inconsistent
   regions) is an input error like a malformed record file: print the
   store's diagnostic against the file and exit 1. *)
let guard_snapshot path f =
  try f ()
  with Invalid_argument msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1

(* Load a saved index, or build one from XML records. *)
let load_or_build ?domains ?mode ?pool_pages path config =
  if is_index_file path then
    guard_snapshot path (fun () -> Xseq.load ?mode ?pool_pages path)
  else Xseq.build ?domains ~config (load_documents path)

let config_of_strategy = function
  | `Probability -> Xseq.default_config
  | `Depth_first ->
    { Xseq.default_config with sequencing = Xseq.Depth_first { canonical = true } }
  | `Breadth_first ->
    { Xseq.default_config with sequencing = Xseq.Breadth_first { canonical = true } }

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv `Probability
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Sequencing strategy: $(b,probability) (the paper's gbest, \
           default), $(b,depth-first) or $(b,breadth-first).")

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"XML file containing one record per root element.")

(* --- gen ---------------------------------------------------------------- *)

let gen_cmd =
  let kind =
    Arg.(
      value
      & opt (enum [ ("synthetic", `Synthetic); ("dblp", `Dblp); ("xmark", `Xmark) ]) `Synthetic
      & info [ "kind" ] ~doc:"Generator: $(b,synthetic), $(b,dblp) or $(b,xmark).")
  in
  let params =
    Arg.(
      value
      & opt string "L3F5A25I0P40"
      & info [ "params" ] ~docv:"LxFxAxIxPx"
          ~doc:"Synthetic dataset parameters, e.g. $(b,L3F5A25I0P40).")
  in
  let n =
    Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Number of records to generate.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  let ident =
    Arg.(
      value & flag
      & info [ "identical-siblings" ]
          ~doc:"XMark only: allow repeating children (identical siblings).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run kind params n seed ident output =
    let docs =
      match kind with
      | `Synthetic ->
        let p =
          try Xdatagen.Synthetic.parse_name params
          with Invalid_argument m ->
            Printf.eprintf "%s\n" m;
            exit 1
        in
        Xdatagen.Synthetic.dataset ~schema_seed:seed ~data_seed:(seed + 1) p n
      | `Dblp -> Xdatagen.Dblp_gen.generate ~seed n
      | `Xmark -> Xdatagen.Xmark_gen.generate ~seed ~identical_siblings:ident n
    in
    let out = match output with None -> stdout | Some f -> open_out f in
    Array.iter
      (fun d -> output_string out (Xmlcore.Xml_printer.to_string d ^ "\n"))
      docs;
    if output <> None then close_out out;
    Printf.eprintf "wrote %d records\n" (Array.length docs)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic, DBLP-like or XMark-like dataset.")
    Term.(const run $ kind $ params $ n $ seed $ ident $ output)

(* --- stats -------------------------------------------------------------- *)

let stats_cmd =
  let run input strategy =
    let t0 = Unix.gettimeofday () in
    let index = load_or_build input (config_of_strategy strategy) in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "records:              %d\n" (Xseq.doc_count index);
    Printf.printf "trie nodes:           %d\n" (Xseq.node_count index);
    Printf.printf "distinct paths:       %d\n" (Xseq.distinct_paths index);
    Printf.printf "avg sequence length:  %.1f\n" (Xseq.average_sequence_length index);
    Printf.printf "size estimate (4n+cN): %d bytes\n" (Xseq.size_bytes index);
    Printf.printf "build time:           %.0f ms\n" (dt *. 1000.)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Build an index over the records and print its statistics.")
    Term.(const run $ input_arg $ strategy_arg)

(* --- sequence ------------------------------------------------------------ *)

let sequence_cmd =
  let limit =
    Arg.(value & opt int 5 & info [ "limit" ] ~doc:"Records to show (default 5).")
  in
  let run input strategy limit =
    let docs = load_documents input in
    let config = config_of_strategy strategy in
    let index = Xseq.build ~config docs in
    let strategy = Xseq.strategy index in
    let symbols = Xseq.symbols index in
    let scratch = Sequencing.Encoder.create_scratch () in
    Array.iteri
      (fun i doc ->
        if i < limit then begin
          let seq = Sequencing.Encoder.encode ~scratch ~strategy symbols doc in
          Printf.printf "record %d: %s\n" i
            (String.concat " "
               (List.map
                  (Sequencing.Symtab.Path.to_string symbols)
                  (Array.to_list seq)))
        end)
      docs
  in
  Cmd.v
    (Cmd.info "sequence"
       ~doc:"Print the constraint-sequence representation of the first records.")
    Term.(const run $ input_arg $ strategy_arg $ limit)

(* --- query --------------------------------------------------------------- *)

let parse_xpath_or_exit q =
  try Xseq.Xpath.parse q
  with Xquery.Xpath_parser.Syntax_error { pos; msg } ->
    Printf.eprintf "query:%d: %s\n" pos msg;
    exit 1

(* Network-facing commands exit with distinct codes so scripts and the
   CI chaos harness can tell failure modes apart without scraping
   stderr:

     0  success
     1  usage / server application error (bad query, unknown snapshot, ...)
     2  cannot reach the server, or the transport/protocol broke
     3  the request deadline expired
     4  the server is up but degraded (read-only store refused a write)
     5  the server is a replication follower and refused the operation
        (the message carries the primary's endpoint)

   Documented in each command's EXIT STATUS man section and in the
   README. *)
let exit_unreachable = 2
let exit_timeout = 3
let exit_degraded = 4
let exit_not_primary = 5

let remote_exits =
  Cmd.Exit.info ~doc:"on success." 0
  :: Cmd.Exit.info
       ~doc:
         "on usage errors and server application errors (bad query, \
          unknown snapshot, unsupported operation)."
       1
  :: Cmd.Exit.info
       ~doc:
         "when the server is unreachable (connection refused, no such \
          socket) or the connection/protocol broke beyond the client's \
          retries."
       exit_unreachable
  :: Cmd.Exit.info ~doc:"when the request deadline expired." exit_timeout
  :: Cmd.Exit.info
       ~doc:
         "when the server answered $(b,degraded): its store is \
          read-only after a disk fault and refused the write.  Probe \
          with $(b,xseq query --connect ADDR --health)."
       exit_degraded
  :: Cmd.Exit.info
       ~doc:
         "when the server answered $(b,not primary): it is a \
          replication follower and the operation belongs on the \
          primary.  The error message names the primary's endpoint \
          (retry there, or use $(b,--endpoints) to chase it \
          automatically)."
       exit_not_primary
  :: Cmd.Exit.defaults

(* Map a failed client call onto the exit-code scheme above.  Wraps
   every remote operation in both [query --connect] and [ingest
   --connect]. *)
let handle_client_errors f =
  try f () with
  | Xserver.Client.Server_error (Xserver.Protocol.Degraded, msg) ->
    Printf.eprintf "server degraded (store is read-only): %s\n" msg;
    exit exit_degraded
  | Xserver.Client.Server_error (Xserver.Protocol.Timeout, msg) ->
    Printf.eprintf "server timeout: %s\n" msg;
    exit exit_timeout
  | Xserver.Client.Server_error (Xserver.Protocol.Not_primary, hint) ->
    Printf.eprintf "server is a follower%s\n"
      (if hint = "" then " (primary unknown)"
       else Printf.sprintf "; the primary is %s" hint);
    exit exit_not_primary
  | Xserver.Client.Server_error (code, msg) ->
    Printf.eprintf "server error (%s): %s\n"
      (Xserver.Protocol.error_code_to_string code)
      msg;
    exit 1
  | Xserver.Client.Timeout msg ->
    Printf.eprintf "timeout: %s\n" msg;
    exit exit_timeout
  | Xserver.Client.Protocol_error msg ->
    Printf.eprintf "protocol error: %s\n" msg;
    exit exit_unreachable
  | Unix.Unix_error (e, _, _) ->
    Printf.eprintf "connection error: %s\n" (Unix.error_message e);
    exit exit_unreachable

let connect_or_exit addr_s =
  match Xserver.Server.addr_of_string addr_s with
  | Error msg ->
    Printf.eprintf "--connect: %s\n" msg;
    exit 1
  | Ok addr ->
    (try Xserver.Client.connect addr with
     | Unix.Unix_error (e, _, _) ->
       Printf.eprintf "cannot connect to %s: %s\n"
         (Xserver.Server.addr_to_string addr)
         (Unix.error_message e);
       exit exit_unreachable
     | Xserver.Client.Timeout msg ->
       Printf.eprintf "cannot connect to %s: %s\n"
         (Xserver.Server.addr_to_string addr)
         msg;
       exit exit_timeout)

(* Queries against a live server over the wire protocol. *)
let run_remote addr_s queries verbose server_stats reload timeout_ms health =
  let client = connect_or_exit addr_s in
  Fun.protect
    ~finally:(fun () -> Xserver.Client.close client)
    (fun () ->
      let handle_server_errors = handle_client_errors in
      if health then
        handle_server_errors (fun () ->
            let h = Xserver.Client.health client in
            Printf.printf "status:     %s\n"
              (if h.Xserver.Client.degraded then "degraded (read-only)"
               else "healthy");
            if h.Xserver.Client.reason <> "" then
              Printf.printf "reason:     %s\n" h.Xserver.Client.reason;
            Printf.printf "generation: %d\n" h.Xserver.Client.generation;
            Printf.printf "documents:  %d\n" h.Xserver.Client.doc_count;
            if queries = [] && not server_stats && reload = None then
              exit (if h.Xserver.Client.degraded then exit_degraded else 0));
      (match reload with
       | Some path ->
         handle_server_errors (fun () ->
             let path = if path = "" then None else Some path in
             let gen = Xserver.Client.reload ?path client in
             Printf.printf "reloaded; serving generation %d\n" gen)
       | None -> ());
      if server_stats then
        handle_server_errors (fun () ->
            print_endline (Xserver.Client.stats client));
      if queries = [] && not server_stats && reload = None then begin
        Printf.eprintf "no query given (and neither --server-stats nor --reload)\n";
        exit 1
      end;
      List.iter
        (fun q ->
          handle_server_errors (fun () ->
              let t0 = Unix.gettimeofday () in
              let gen, ids = Xserver.Client.query_full ~timeout_ms client q in
              let dt = Unix.gettimeofday () -. t0 in
              if verbose || List.length queries > 1 then
                Printf.printf "%-48s %6d matches (%.2f ms, generation %d)\n" q
                  (List.length ids) (dt *. 1000.) gen
              else
                Printf.printf "%d matching records (%.2f ms)\n"
                  (List.length ids) (dt *. 1000.);
              if not verbose || List.length queries = 1 then
                Printf.printf "ids: %s\n"
                  (String.concat " " (List.map string_of_int ids))))
        queries)

(* Several patterns against one locally built index: compile each once
   ([prepare]) and execute the compiled plan, instead of re-running the
   whole pipeline per pattern the way repeated [query] calls would. *)
let run_local_multi index queries verbose =
  let patterns = List.map parse_xpath_or_exit queries in
  let stats = Xquery.Matcher.create_stats () in
  let t0 = Unix.gettimeofday () in
  let rows =
    List.map2
      (fun q pattern ->
        let c0 = Unix.gettimeofday () in
        let prep =
          try Some (Xseq.prepare index pattern)
          with Xquery.Instantiate.Too_many _ -> None
        in
        let c1 = Unix.gettimeofday () in
        let ids =
          match prep with
          | Some p -> Xseq.run_prepared ~stats index p
          | None -> Xseq.query ~stats index pattern (* exact-scan fallback *)
        in
        (q, ids, c1 -. c0, Unix.gettimeofday () -. c1))
      queries patterns
  in
  let dt = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (q, ids, t_prep, t_run) ->
      if verbose then
        Printf.printf "%-48s %6d matches (prepare %.2f ms, run %.2f ms)\n" q
          (List.length ids) (t_prep *. 1000.) (t_run *. 1000.)
      else Printf.printf "%-48s %6d matches\n" q (List.length ids))
    rows;
  Printf.printf "%d queries in %.2f ms; link probes: %d, candidates: %d\n"
    (List.length rows) (dt *. 1000.) stats.Xquery.Matcher.probes
    stats.Xquery.Matcher.candidates

let run_local_single index q show paged =
  let pattern = parse_xpath_or_exit q in
  let store = if paged then Xseq.backing_store index else None in
  (* Cumulative since open (the load's own reads included); the delta
     isolates what this one query cost. *)
  let pool () =
    match store with
    | Some s -> (Xstorage.Store.page_reads s, Xstorage.Store.page_hits s)
    | None -> (0, 0)
  in
  let reads0, hits0 = pool () in
  let t0 = Unix.gettimeofday () in
  let ids = Xseq.query index pattern in
  let dt = Unix.gettimeofday () -. t0 in
  let reads, hits = pool () in
  Printf.printf "%d matching records (%.2f ms)\n" (List.length ids)
    (dt *. 1000.);
  if store <> None then begin
    Printf.printf "buffer pool: %d page reads, %d hits\n" reads hits;
    Printf.printf "this query: %d page reads, %d hits\n" (reads - reads0)
      (hits - hits0)
  end;
  List.iteri
    (fun k id ->
      if k < show then
        Printf.printf "--- record %d ---\n%s\n" id
          (Xmlcore.Xml_printer.to_string ~indent:true (Xseq.document index id))
      else if k = show && show > 0 then print_endline "...")
    ids;
  if show = 0 then
    Printf.printf "ids: %s\n" (String.concat " " (List.map string_of_int ids))

let recovery_suffix (r : Xlog.recovery) =
  String.concat ""
    (List.map (fun (f, d) -> Printf.sprintf "; torn %s (%s)" f d) r.Xlog.torn)

let report_log_recovery cmd log =
  let r = Xlog.recovery log in
  if r.Xlog.replayed > 0 || r.Xlog.torn <> [] then
    Printf.eprintf "xseq %s: recovered %d WAL records%s\n" cmd r.Xlog.replayed
      (recovery_suffix r)

(* The one seeding path of both CLI entry points ([serve --live DIR FILE]
   and [ingest --live DIR FILE...] on a store that never allocated an
   id), sharded or not: [Xlog.seed] or [Xshard.seed], one bulk build per
   store (per shard), durable on return, no WAL record. *)
let seed_live cmd seed docs =
  match seed docs with
  | ids -> ids
  | exception (Xlog.Degraded reason | Xshard.Shard_down (_, reason)) ->
    Printf.eprintf "%s: cannot seed the live store: %s\n" cmd reason;
    exit 1

let report_shard_recovery cmd sh =
  List.iter
    (fun (i, r) ->
      if r.Xlog.replayed > 0 || r.Xlog.torn <> [] then
        Printf.eprintf "xseq %s: shard %d recovered %d WAL records%s\n" cmd i
          r.Xlog.replayed (recovery_suffix r))
    (Xshard.recovery sh)

(* Queries answered directly from a durable store directory
   (crash-recovering it first) — the offline twin of [serve --live].
   A directory carrying an xshard.meta opens as the sharded engine. *)
let run_live_queries dir strategy queries =
  if queries = [] then begin
    Printf.eprintf "missing XPATH query\n";
    exit 1
  end;
  let answer_all query_one =
    List.iter
      (fun q ->
        let pattern = parse_xpath_or_exit q in
        let t0 = Unix.gettimeofday () in
        let ids = query_one pattern in
        let dt = Unix.gettimeofday () -. t0 in
        Printf.printf "%d matching records (%.2f ms)\n" (List.length ids)
          (dt *. 1000.);
        Printf.printf "ids: %s\n"
          (String.concat " " (List.map string_of_int ids)))
      queries
  in
  if Xshard.is_sharded_dir dir then begin
    let sh =
      try Xshard.open_ ~config:(config_of_strategy strategy) dir
      with Invalid_argument msg ->
        Printf.eprintf "query: cannot open sharded store %s: %s\n" dir msg;
        exit 1
    in
    Fun.protect
      ~finally:(fun () -> Xshard.close sh)
      (fun () ->
        report_shard_recovery "query" sh;
        answer_all (fun pattern -> Xshard.query sh pattern))
  end
  else begin
    let log =
      try Xlog.open_ ~config:(config_of_strategy strategy) dir
      with Invalid_argument msg ->
        Printf.eprintf "query: cannot open live store %s: %s\n" dir msg;
        exit 1
    in
    Fun.protect
      ~finally:(fun () -> Xlog.close log)
      (fun () ->
        report_log_recovery "query" log;
        answer_all (fun pattern -> Xlog.query log pattern))
  end

(* Queries against a replicated group: fan reads over the endpoint list
   with failover, optionally bounded-staleness via the primary's
   watermark.  Cluster's [Failure] means every endpoint failed. *)
let run_cluster eps queries max_staleness timeout_ms verbose =
  if queries = [] then begin
    Printf.eprintf "missing XPATH query\n";
    exit 1
  end;
  match Xserver.Cluster.create eps with
  | Error msg ->
    Printf.eprintf "--endpoints: %s\n" msg;
    exit 1
  | Ok cluster ->
    Fun.protect
      ~finally:(fun () -> Xserver.Cluster.close cluster)
      (fun () ->
        List.iter
          (fun q ->
            handle_client_errors (fun () ->
                try
                  let t0 = Unix.gettimeofday () in
                  let ids =
                    Xserver.Cluster.query ~timeout_ms ?max_staleness cluster q
                  in
                  let dt = Unix.gettimeofday () -. t0 in
                  if verbose || List.length queries > 1 then
                    Printf.printf "%-48s %6d matches (%.2f ms)\n" q
                      (List.length ids) (dt *. 1000.)
                  else
                    Printf.printf "%d matching records (%.2f ms)\n"
                      (List.length ids) (dt *. 1000.);
                  if not verbose || List.length queries = 1 then
                    Printf.printf "ids: %s\n"
                      (String.concat " " (List.map string_of_int ids))
                with Failure msg ->
                  Printf.eprintf "%s\n" msg;
                  exit exit_unreachable))
          queries)

let query_cmd =
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE XPATH..."
          ~doc:
            "The records (or saved index) followed by one or more queries; \
             with $(b,--connect), every positional argument is a query.")
  in
  let show =
    Arg.(
      value & opt int 0
      & info [ "show" ] ~doc:"Print the first N matching records as XML.")
  in
  let paged =
    Arg.(
      value & flag
      & info [ "paged" ]
          ~doc:
            "When FILE is a saved index, leave its columns on disk and \
             answer through the buffer pool; reports the page reads and \
             hits since open and, for a single query, that query's own.")
  in
  let pool_pages =
    Arg.(
      value & opt int 256
      & info [ "pool-pages" ] ~docv:"N"
          ~doc:
            "With $(b,--paged): buffer-pool capacity in pages (default \
             256).  Smaller pools model smaller RAM; evictions show up \
             as extra page reads.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Send the queries to a running $(b,xseq serve) instead of \
             indexing locally.  ADDR is $(b,unix:PATH) or $(b,HOST:PORT).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Print per-query compile/run timing.")
  in
  let server_stats =
    Arg.(
      value & flag
      & info [ "server-stats" ]
          ~doc:"With $(b,--connect): print the server's metrics JSON.")
  in
  let reload =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "reload" ] ~docv:"SNAPSHOT"
          ~doc:
            "With $(b,--connect): hot-swap the served index — to the given \
             snapshot file, or (with no value) by refreshing the server's \
             own source.")
  in
  let timeout =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ]
          ~doc:"With $(b,--connect): per-request deadline (0 = none).")
  in
  let health =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "With $(b,--connect): print the server's health — degraded \
             or not, the reason, its generation and document count.  \
             Alone (no queries), the exit status reflects the state: 0 \
             healthy, 4 degraded.")
  in
  let live =
    Arg.(
      value
      & opt (some string) None
      & info [ "live" ] ~docv:"DIR"
          ~doc:
            "Answer the queries directly from the durable Xlog store in \
             DIR (crash-recovering it first); every positional argument \
             is a query.")
  in
  let endpoints =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "endpoints" ] ~docv:"ADDR,ADDR,..."
          ~doc:
            "Fan the queries over a replicated group: each read goes to \
             whichever endpoint answers (round-robin with failover), \
             and $(b,Not_primary) redirects are chased.  Every \
             positional argument is a query.")
  in
  let max_staleness =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-staleness" ] ~docv:"N"
          ~doc:
            "With $(b,--endpoints): bound follower staleness — the \
             answering replica must hold all but the last N documents \
             of the primary's current watermark (0 = exactly caught \
             up).")
  in
  let run args strategy show paged pool_pages connect verbose server_stats
      reload timeout health live endpoints max_staleness =
    (match endpoints with
     | Some eps ->
       if connect <> None || live <> None then begin
         Printf.eprintf "--endpoints is mutually exclusive with --connect/--live\n";
         exit 1
       end;
       if show > 0 || paged || server_stats || reload <> None || health
       then begin
         Printf.eprintf
           "--show/--paged/--server-stats/--reload/--health do not apply \
            with --endpoints\n";
         exit 1
       end;
       run_cluster eps args max_staleness timeout verbose;
       exit 0
     | None ->
       if max_staleness <> None then begin
         Printf.eprintf "--max-staleness requires --endpoints\n";
         exit 1
       end);
    match (live, connect) with
    | Some _, Some _ ->
      Printf.eprintf "--live and --connect are mutually exclusive\n";
      exit 1
    | Some dir, None ->
      if show > 0 || paged || server_stats || reload <> None || health
      then begin
        Printf.eprintf
          "--show/--paged/--server-stats/--reload/--health do not apply \
           with --live\n";
        exit 1
      end;
      run_live_queries dir strategy args
    | None, Some addr ->
      if show > 0 || paged then begin
        Printf.eprintf "--show/--paged do not apply with --connect\n";
        exit 1
      end;
      run_remote addr args verbose server_stats reload timeout health
    | None, None ->
      if health then begin
        Printf.eprintf "--health requires --connect\n";
        exit 1
      end;
      (match args with
       | [] ->
         Printf.eprintf "missing FILE (and at least one XPATH)\n";
         exit 1
       | input :: queries ->
         if queries = [] then begin
           Printf.eprintf "missing XPATH query\n";
           exit 1
         end;
         if not (Sys.file_exists input) then begin
           Printf.eprintf "%s: no such file\n" input;
           exit 1
         end;
         if paged && not (is_index_file input) then begin
           Printf.eprintf "--paged requires a saved index file\n";
           exit 1
         end;
         let index =
           load_or_build
             ~mode:
               (if paged then Xstorage.Store.Paged else Xstorage.Store.Resident)
             ~pool_pages input
             (config_of_strategy strategy)
         in
         (match queries with
          | [ q ] -> run_local_single index q show paged
          | _ ->
            if show > 0 then begin
              Printf.eprintf "--show applies to a single query only\n";
              exit 1
            end;
            run_local_multi index queries verbose))
  in
  Cmd.v
    (Cmd.info "query" ~exits:remote_exits
       ~doc:
         "Answer tree-pattern queries — against a locally built index, or \
          against a running server with $(b,--connect).  Several queries \
          share one index and are compiled once each.")
    Term.(
      const run $ args $ strategy_arg $ show $ paged $ pool_pages
      $ connect $ verbose $ server_stats $ reload $ timeout $ health $ live
      $ endpoints $ max_staleness)

(* --- serve ---------------------------------------------------------------- *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP.")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Interface for $(b,--port).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing queries (default 2).")
  in
  let max_pending =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission bound: requests in flight beyond this answer an \
             $(b,overloaded) error frame (default 64).")
  in
  let plan_cache =
    Arg.(
      value & opt int 256
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:
            "Prepared-plan LRU capacity (default 256); 0 disables the cache, \
             so every query recompiles.")
  in
  let timeout_ms =
    Arg.(
      value & opt int 0
      & info [ "timeout-ms" ]
          ~doc:"Default per-request deadline for requests carrying none (0 = none).")
  in
  let metrics_interval =
    Arg.(
      value & opt float 0.
      & info [ "metrics-interval" ] ~docv:"SECONDS"
          ~doc:"Dump the metrics JSON to stderr every SECONDS (0 = never).")
  in
  let paged =
    Arg.(
      value & flag
      & info [ "paged" ]
          ~doc:
            "Serve the snapshot off disk through the buffer pool instead \
             of materialising it in RAM (FILE must be a saved index).  \
             $(b,Stats) then reports page reads, hits and pool size.")
  in
  let pool_pages =
    Arg.(
      value & opt int 256
      & info [ "pool-pages" ] ~docv:"N"
          ~doc:
            "With $(b,--paged): buffer-pool capacity in pages (default \
             256).  Bounds the resident column-data footprint.")
  in
  let live =
    Arg.(
      value
      & opt (some string) None
      & info [ "live" ] ~docv:"DIR"
          ~doc:
            "Serve a durable Xlog store living in DIR (created and \
             crash-recovered on open).  The Insert/Delete/Flush wire ops \
             — $(b,xseq ingest --connect) — mutate it; queries answer \
             over base + deltas minus tombstones.  If FILE is also given \
             and the store is empty, FILE's records seed it.")
  in
  let sync_every =
    Arg.(
      value & opt int 1
      & info [ "sync-every" ] ~docv:"N"
          ~doc:
            "With $(b,--live): fsync the WAL after every Nth record (1 = \
             every record, 0 = never).")
  in
  let memtable_limit =
    Arg.(
      value & opt int 256
      & info [ "memtable-limit" ] ~docv:"N"
          ~doc:
            "With $(b,--live): seal the unindexed memtable into a delta \
             segment once it holds N documents (default 256).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "With $(b,--live): serve an N-shard store — each shard an \
             independent WAL + delta-segment store, inserts hash-routed, \
             queries scatter-gathered.  N is fixed at creation and \
             recorded in the directory; re-opening an existing sharded \
             directory picks its count up automatically (a conflicting \
             explicit N is an error).")
  in
  let serve_input =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "XML records or a saved index to serve (optional with \
             $(b,--live): records given with an empty $(b,--live) store \
             seed it in one bulk build; refused with $(b,--follow)).")
  in
  let follow =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"ADDR"
          ~doc:
            "Run as a replication follower of the primary at ADDR \
             ($(b,unix:PATH) or $(b,HOST:PORT)): subscribe to its WAL, \
             mirror every record into the local $(b,--live) store, and \
             serve reads from it.  Mutations answer $(b,not primary) \
             with the leader's endpoint.")
  in
  let advertise =
    Arg.(
      value & opt string ""
      & info [ "advertise" ] ~docv:"ADDR"
          ~doc:
            "How peers and clients reach this node — the leader hint it \
             hands out when promoted, and its identity in elections.")
  in
  let peers =
    Arg.(
      value
      & opt (list string) []
      & info [ "peers" ] ~docv:"ADDR,ADDR,..."
          ~doc:
            "The other replicas' endpoints — the electorate consulted \
             by $(b,--auto-promote) before a follower promotes itself.")
  in
  let sync_replicas =
    Arg.(
      value & opt int 0
      & info [ "sync-replicas" ] ~docv:"N"
          ~doc:
            "Primary: acknowledge a mutation only once N subscribed \
             followers durably hold it (0 = asynchronous replication).  \
             Pair with $(b,--sync-every 1).")
  in
  let ack_timeout_ms =
    Arg.(
      value & opt int 5000
      & info [ "ack-timeout-ms" ] ~docv:"MS"
          ~doc:
            "With $(b,--sync-replicas): how long a mutation may wait \
             for follower acknowledgements before answering a timeout \
             (the write is applied locally; its replication is \
             indeterminate).")
  in
  let heartbeat_timeout_ms =
    Arg.(
      value & opt int 3000
      & info [ "heartbeat-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Follower: presume the primary dead after this much silence \
             (no batch, no heartbeat) and reconnect — or, with \
             $(b,--auto-promote), run an election.")
  in
  let auto_promote =
    Arg.(
      value & flag
      & info [ "auto-promote" ]
          ~doc:
            "Follower: on primary silence, probe $(b,--peers) and \
             promote self if no primary answers and no peer holds a \
             higher durable WAL position.")
  in
  let scrub_interval =
    Arg.(
      value & opt float 0.
      & info [ "scrub-interval" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--live): anti-entropy scrub — a background pass \
             re-verifying every at-rest checksum (checkpoint, base \
             snapshot regions, WAL record CRCs) every SECONDS (0 = \
             off).  Silent corruption quarantines the store (degraded, \
             read-only) instead of waiting for a query to trip over \
             it; on a follower the quarantine also triggers a snapshot \
             re-seed from the primary, and a clean pass afterwards \
             lifts it.  Counters appear under $(b,scrub) in \
             $(b,query --server-stats).")
  in
  let scrub_rate =
    Arg.(
      value & opt float 32.
      & info [ "scrub-rate-mb-s" ] ~docv:"MB"
          ~doc:
            "With $(b,--scrub-interval): scrub read-bandwidth cap in \
             MiB/s, so the scrubber never starves serving I/O \
             (default 32).")
  in
  let run input strategy socket port host workers max_pending
      plan_cache timeout_ms metrics_interval paged pool_pages
      live sync_every memtable_limit shards follow advertise peers
      sync_replicas ack_timeout_ms heartbeat_timeout_ms auto_promote
      scrub_interval scrub_rate =
    let addrs =
      (match socket with Some p -> [ Xserver.Server.Unix_sock p ] | None -> [])
      @ (match port with Some p -> [ Xserver.Server.Tcp (host, p) ] | None -> [])
    in
    if addrs = [] then begin
      Printf.eprintf "serve: need --socket PATH and/or --port N\n";
      exit 1
    end;
    if shards <> None && live = None then begin
      Printf.eprintf "serve: --shards applies to --live only\n";
      exit 1
    end;
    if
      paged
      && (live <> None
         ||
         match input with
         | Some f -> not (is_index_file f)
         | None -> true)
    then begin
      Printf.eprintf "serve: --paged requires a saved index snapshot FILE\n";
      exit 1
    end;
    let repl_wanted =
      follow <> None || advertise <> "" || peers <> [] || sync_replicas > 0
      || auto_promote
    in
    (match (repl_wanted, live) with
     | true, None ->
       Printf.eprintf
         "serve: --follow/--advertise/--peers/--sync-replicas/\
          --auto-promote require --live DIR (replication ships the \
          store's WAL)\n";
       exit 1
     | true, Some dir when shards <> None || Xshard.is_sharded_dir dir ->
       Printf.eprintf "serve: replication does not support --shards yet\n";
       exit 1
     | _ -> ());
    let log_store = ref None in
    let shard_store = ref None in
    let source =
      match live with
      | Some dir when shards <> None || Xshard.is_sharded_dir dir ->
        let sh =
          try
            Xshard.open_ ?shards ~sync_every ~memtable_limit
              ~config:(config_of_strategy strategy)
              dir
          with Invalid_argument msg ->
            Printf.eprintf "serve: cannot open sharded store %s: %s\n" dir msg;
            exit 1
        in
        shard_store := Some sh;
        report_shard_recovery "serve" sh;
        (* Just opened, so the routing sequence is the ids allocated. *)
        (match input with
         | Some file when Xshard.next_seq sh = 0 ->
           let docs = load_documents file in
           ignore (seed_live "serve" (Xshard.seed sh) docs : int array);
           Printf.eprintf
             "xseq serve: seeded %d-shard store with %d records\n"
             (Xshard.shard_count sh) (Array.length docs)
         | _ -> ());
        Xserver.Server.Sharded sh
      | Some dir ->
        let log =
          try
            Xlog.open_ ~sync_every ~memtable_limit
              ~config:(config_of_strategy strategy)
              dir
          with Invalid_argument msg ->
            Printf.eprintf "serve: cannot open live store %s: %s\n" dir msg;
            exit 1
        in
        log_store := Some log;
        report_log_recovery "serve" log;
        (match input with
         | Some _ when follow <> None ->
           (* A follower's store is a mirror of its primary's WAL: seeding
              would rotate it out of step. *)
           Printf.eprintf
             "serve: --follow takes no FILE (a follower's store is filled \
              by replication)\n";
           exit 1
         | Some file when Xlog.next_id log = 0 ->
           let docs = load_documents file in
           ignore (seed_live "serve" (Xlog.seed log) docs : int array);
           Printf.eprintf "xseq serve: seeded live store with %d records\n"
             (Array.length docs)
         | _ -> ());
        Xserver.Server.Live log
      | None ->
        let input =
          match input with
          | Some f -> f
          | None ->
            Printf.eprintf "serve: need FILE (or --live DIR)\n";
            exit 1
        in
        if is_index_file input then Xserver.Server.Snapshot input
        else
          Xserver.Server.Static
            (Xseq.build ~config:(config_of_strategy strategy)
               (load_documents input))
    in
    let repl_node =
      if not repl_wanted then None
      else
        match !log_store with
        | None -> assert false (* repl_wanted implies an unsharded --live *)
        | Some log ->
          Some
            (Xrepl.Node.create
               {
                 Xrepl.Node.default_config with
                 advertise;
                 follow;
                 peers;
                 sync_replicas;
                 ack_timeout_ms;
                 heartbeat_timeout_ms;
                 auto_promote;
               }
               log)
    in
    let scrubber =
      if scrub_interval <= 0. then None
      else
        match !log_store with
        | None ->
          Printf.eprintf
            "serve: --scrub-interval requires an unsharded --live DIR\n";
          exit 1
        | Some log ->
          let sc =
            Xlog.Scrub.create ~interval:scrub_interval ~rate_mb_s:scrub_rate
              ~log:(fun m -> Printf.eprintf "xseq serve: scrub: %s\n%!" m)
              log
          in
          (match repl_node with
           | Some node ->
             (* peer-connected repair: a quarantined follower re-seeds
                itself from the primary's snapshot; the next clean pass
                lifts the quarantine and counts the repair *)
             Xlog.Scrub.set_repair sc (fun _diag ->
                 Xrepl.Node.request_reseed node)
           | None -> ());
          Some sc
    in
    let config =
      {
        Xserver.Server.default_config with
        workers;
        max_pending;
        plan_cache_capacity = plan_cache;
        default_timeout_ms = timeout_ms;
        snapshot_mode =
          (if paged then Xstorage.Store.Paged else Xstorage.Store.Resident);
        snapshot_pool_pages = pool_pages;
        repl = Option.map Xrepl.Node.hooks repl_node;
        scrub = scrubber;
      }
    in
    let server =
      match source with
      | Xserver.Server.Snapshot file ->
        guard_snapshot file (fun () -> Xserver.Server.create ~config source)
      | _ -> Xserver.Server.create ~config source
    in
    Xserver.Server.start server addrs;
    (match scrubber with
     | Some sc ->
       Xlog.Scrub.start sc;
       Printf.eprintf "xseq serve: scrubbing every %.0fs (%.0f MiB/s cap)\n%!"
         scrub_interval scrub_rate
     | None -> ());
    (match repl_node with
     | Some node ->
       Xrepl.Node.start node;
       Printf.eprintf "xseq serve: replication %s, epoch %d%s\n%!"
         (match Xrepl.Node.role node with
          | `Primary -> "primary"
          | `Follower -> "follower")
         (Xrepl.Node.epoch node)
         (match follow with
          | Some ep -> Printf.sprintf ", following %s" ep
          | None -> "")
     | None -> ());
    Printf.eprintf
      "xseq serve: generation %d on %s (%d workers, %d max pending, plan \
       cache %d)\n\
       %!"
      (Xserver.Server.generation server)
      (String.concat ", " (List.map Xserver.Server.addr_to_string addrs))
      workers max_pending
      plan_cache;
    if metrics_interval > 0. then
      ignore
        (Thread.create
           (fun () ->
             let rec loop () =
               Thread.delay metrics_interval;
               prerr_endline (Xserver.Server.stats_json server);
               loop ()
             in
             loop ())
           ());
    Xserver.Server.wait server;
    (match scrubber with Some sc -> Xlog.Scrub.stop sc | None -> ());
    (match repl_node with Some node -> Xrepl.Node.stop node | None -> ());
    (match !log_store with Some log -> Xlog.close log | None -> ());
    (match !shard_store with Some sh -> Xshard.close sh | None -> ());
    Printf.eprintf "xseq serve: stopped cleanly\n"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve queries over the xseq wire protocol from a long-lived \
          process: index once, answer many — with a prepared-plan cache, \
          admission control, live metrics and hot index swap ($(b,query \
          --connect) is the matching client).")
    Term.(
      const run $ serve_input $ strategy_arg $ socket $ port $ host $ workers
      $ max_pending $ plan_cache $ timeout_ms
      $ metrics_interval $ paged $ pool_pages $ live $ sync_every
      $ memtable_limit
      $ shards $ follow $ advertise $ peers $ sync_replicas $ ack_timeout_ms
      $ heartbeat_timeout_ms $ auto_promote $ scrub_interval $ scrub_rate)

(* --- ingest ---------------------------------------------------------------- *)

let ingest_cmd =
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILES"
          ~doc:"XML record files to ingest (one record per root element).")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Send the records to a running $(b,xseq serve --live) over the \
             wire protocol.  ADDR is $(b,unix:PATH) or $(b,HOST:PORT).")
  in
  let live =
    Arg.(
      value
      & opt (some string) None
      & info [ "live" ] ~docv:"DIR"
          ~doc:"Write directly into the durable Xlog store in DIR.")
  in
  let sync_every =
    Arg.(
      value & opt int 1
      & info [ "sync-every" ] ~docv:"N"
          ~doc:
            "With $(b,--live): fsync the WAL after every Nth record (1 = \
             every record, 0 = never).")
  in
  let throttle_ms =
    Arg.(
      value & opt int 0
      & info [ "throttle-ms" ] ~docv:"MS"
          ~doc:
            "Sleep MS milliseconds between records — ingestion pacing; \
             the CI crash-recovery test uses it to widen its kill \
             window.  Paced records are inserted one by one, even into \
             an empty $(b,--live) store.")
  in
  let do_flush =
    Arg.(
      value & flag
      & info [ "flush" ]
          ~doc:
            "After ingesting, seal the memtable into a delta segment and \
             fsync the WAL (over the wire this is the Flush op).")
  in
  let do_compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "With $(b,--live): after ingesting, rebuild base and deltas \
             into a fresh snapshot and truncate the WAL (a server does \
             this on the Reload op).")
  in
  let deletes =
    Arg.(
      value
      & opt (list int) []
      & info [ "delete" ] ~docv:"IDS"
          ~doc:"Comma-separated document ids to tombstone after the inserts.")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "With $(b,--live): create (or open) the store as an N-shard \
             engine; inserts hash-route across the shards.  An existing \
             sharded directory is detected without this flag.")
  in
  let run files strategy connect live sync_every throttle_ms do_flush
      do_compact deletes shards =
    let throttle () =
      if throttle_ms > 0 then Unix.sleepf (float_of_int throttle_ms /. 1000.)
    in
    let docs =
      List.concat_map (fun f -> Array.to_list (load_documents f)) files
    in
    if docs = [] && deletes = [] && (not do_flush) && not do_compact then begin
      Printf.eprintf "nothing to do: no FILES, --delete, --flush or --compact\n";
      exit 1
    end;
    (* [range] claims a dense id interval — only true for an unsharded
       store, where ids are contiguous.  A sharded server hands out
       shard-tagged ids (shard in the high bits), so the wire path
       reports first/last without implying density. *)
    let report ?(range = false) n first last dt =
      if n > 0 then
        Printf.printf
          (if range then
             "ingested %d records in %.2f ms (%.0f records/s), ids %d..%d\n"
           else
             "ingested %d records in %.2f ms (%.0f records/s), first id %d, \
              last id %d\n")
          n (dt *. 1000.)
          (if dt > 0. then float_of_int n /. dt else 0.)
          first last
    in
    match (connect, live) with
    | Some _, Some _ ->
      Printf.eprintf "--connect and --live are mutually exclusive\n";
      exit 1
    | None, None ->
      Printf.eprintf "ingest: need --connect ADDR or --live DIR\n";
      exit 1
    | Some addr, None ->
      if do_compact then begin
        Printf.eprintf
          "--compact applies to --live only (a live server compacts on the \
           Reload op)\n";
        exit 1
      end;
      let client = connect_or_exit addr in
      Fun.protect
        ~finally:(fun () -> Xserver.Client.close client)
        (fun () ->
          handle_client_errors (fun () ->
            let t0 = Unix.gettimeofday () in
            let first = ref (-1) and last = ref (-1) and n = ref 0 in
            List.iter
              (fun d ->
                let id =
                  Xserver.Client.insert client (Xmlcore.Xml_printer.to_string d)
                in
                if !first < 0 then first := id;
                last := id;
                incr n;
                throttle ())
              docs;
            report !n !first !last (Unix.gettimeofday () -. t0);
            List.iter
              (fun id ->
                let existed = Xserver.Client.delete client id in
                Printf.printf "delete %d: %s\n" id
                  (if existed then "ok" else "absent"))
              deletes;
            if do_flush then begin
              let gen = Xserver.Client.flush client in
              Printf.printf "flushed; structure generation %d\n" gen
            end))
    | None, Some dir when shards <> None || Xshard.is_sharded_dir dir ->
      let sh =
        try
          Xshard.open_ ?shards ~sync_every
            ~config:(config_of_strategy strategy)
            dir
        with Invalid_argument msg ->
          Printf.eprintf "ingest: cannot open sharded store %s: %s\n" dir msg;
          exit 1
      in
      Fun.protect
        ~finally:(fun () -> Xshard.close sh)
        (fun () ->
          report_shard_recovery "ingest" sh;
          let t0 = Unix.gettimeofday () in
          let n = ref 0 in
          (* The unsharded rule: paced ingestion stays record by record,
             a store that never allocated an id is seeded. *)
          if throttle_ms = 0 && docs <> [] && Xshard.next_seq sh = 0 then
            n :=
              Array.length
                (seed_live "ingest" (Xshard.seed sh) (Array.of_list docs))
          else
            List.iter
              (fun d ->
                ignore (Xshard.insert sh d : int);
                incr n;
                throttle ())
              docs;
          (* Shard-tagged ids are not contiguous (the shard number lives
             in the high bits), so a first..last range would be
             misleading here; report the routing fan-out instead. *)
          (let dt = Unix.gettimeofday () -. t0 in
           if !n > 0 then
             Printf.printf
               "ingested %d records in %.2f ms (%.0f records/s) across %d \
                shards\n"
               !n (dt *. 1000.)
               (if dt > 0. then float_of_int !n /. dt else 0.)
               (Xshard.shard_count sh));
          List.iter
            (fun id ->
              let existed = Xshard.remove sh id in
              Printf.printf "delete %d: %s\n" id
                (if existed then "ok" else "absent"))
            deletes;
          if do_flush then Xshard.flush sh;
          if do_compact then begin
            ignore (Xshard.compact ~wait:true sh : bool);
            Printf.printf "compacted; structure generation %d\n"
              (Xshard.generation sh)
          end;
          let infos = Xshard.shard_infos sh in
          Printf.printf "store: %d shards, %d live documents\n"
            (Xshard.shard_count sh) (Xshard.doc_count sh);
          Array.iter
            (fun (i : Xshard.shard_info) ->
              Printf.printf
                "  shard %d: %d live documents, %d segments, %d pending, \
                 %d tombstones\n"
                i.Xshard.shard i.Xshard.docs i.Xshard.segments
                i.Xshard.pending i.Xshard.tombstones)
            infos)
    | None, Some dir ->
      let log =
        try
          Xlog.open_ ~sync_every ~config:(config_of_strategy strategy) dir
        with Invalid_argument msg ->
          Printf.eprintf "ingest: cannot open live store %s: %s\n" dir msg;
          exit 1
      in
      Fun.protect
        ~finally:(fun () -> Xlog.close log)
        (fun () ->
          report_log_recovery "ingest" log;
          let t0 = Unix.gettimeofday () in
          (* Paced ingestion (--throttle-ms) stays record by record. *)
          if throttle_ms = 0 && docs <> [] && Xlog.next_id log = 0 then begin
            let ids = seed_live "ingest" (Xlog.seed log) (Array.of_list docs) in
            report ~range:true (Array.length ids) 0
              (Array.length ids - 1)
              (Unix.gettimeofday () -. t0)
          end
          else begin
            let first = ref (-1) and last = ref (-1) and n = ref 0 in
            List.iter
              (fun d ->
                let id = Xlog.insert log d in
                if !first < 0 then first := id;
                last := id;
                incr n;
                throttle ())
              docs;
            report ~range:true !n !first !last (Unix.gettimeofday () -. t0)
          end;
          List.iter
            (fun id ->
              let existed = Xlog.remove log id in
              Printf.printf "delete %d: %s\n" id
                (if existed then "ok" else "absent"))
            deletes;
          if do_flush then Xlog.flush log;
          if do_compact then begin
            ignore (Xlog.compact ~wait:true log : bool);
            Printf.printf "compacted; structure generation %d\n"
              (Xlog.generation log)
          end;
          Printf.printf
            "store: %d live documents, %d segments, %d pending, %d \
             tombstones\n"
            (Xlog.doc_count log) (Xlog.segments log) (Xlog.pending log)
            (Xlog.tombstones log))
  in
  Cmd.v
    (Cmd.info "ingest" ~exits:remote_exits
       ~doc:
         "Append records to a durable live store — directly into an Xlog \
          directory with $(b,--live), or over the wire protocol to a \
          running $(b,xseq serve --live) with $(b,--connect).  Every \
          record is WAL-logged before it is acknowledged; $(b,--delete) \
          tombstones ids and $(b,--flush)/$(b,--compact) drive the \
          maintenance ops by hand.  With $(b,--live) and no \
          $(b,--throttle-ms), an empty store (one that never allocated \
          an id) is seeded instead: one bulk build, ids 0..n-1, durable \
          on return, with the WAL starting after the seed.")
    Term.(
      const run $ files $ strategy_arg $ connect $ live $ sync_every
      $ throttle_ms $ do_flush $ do_compact $ deletes $ shards)

(* --- promote / repl-status ------------------------------------------------ *)

let promote_cmd =
  let addr =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "The replica to promote ($(b,unix:PATH) or $(b,HOST:PORT)).")
  in
  let timeout =
    Arg.(
      value & opt int 10_000
      & info [ "timeout-ms" ] ~doc:"Request deadline (default 10s).")
  in
  let run addr timeout =
    let client = connect_or_exit addr in
    Fun.protect
      ~finally:(fun () -> Xserver.Client.close client)
      (fun () ->
        handle_client_errors (fun () ->
            let epoch = Xserver.Client.promote ~timeout_ms:timeout client in
            Printf.printf "promoted; epoch %d\n" epoch))
  in
  Cmd.v
    (Cmd.info "promote" ~exits:remote_exits
       ~doc:
         "Promote a replica to primary: it bumps the replication epoch, \
          starts accepting mutations, and fences the old primary (whose \
          stale-epoch stream followers now refuse).  Point clients at \
          it, or let $(b,--endpoints) readers chase the new leader \
          hint.")
    Term.(const run $ addr $ timeout)

let repl_status_cmd =
  let addrs =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ADDR..."
          ~doc:"Replica endpoints to probe ($(b,unix:PATH) or $(b,HOST:PORT)).")
  in
  let run addrs =
    List.iter
      (fun addr_s ->
        match Xserver.Server.addr_of_string addr_s with
        | Error msg -> Printf.printf "%-28s bad address: %s\n" addr_s msg
        | Ok addr -> (
          match Xserver.Client.connect addr with
          | exception e ->
            Printf.printf "%-28s unreachable: %s\n" addr_s
              (match e with
               | Unix.Unix_error (er, _, _) -> Unix.error_message er
               | Xserver.Client.Timeout m -> m
               | e -> Printexc.to_string e)
          | client ->
            Fun.protect
              ~finally:(fun () -> Xserver.Client.close client)
              (fun () ->
                match Xserver.Client.repl_status ~timeout_ms:5000 client with
                | st ->
                  Printf.printf
                    "%-28s %-8s epoch %-4d durable %06d:%d  next id %d%s%s\n"
                    addr_s
                    (match st.Xserver.Client.role with
                     | `Primary -> "primary"
                     | `Follower -> "follower")
                    st.Xserver.Client.epoch
                    st.Xserver.Client.durable.Xlog.Wal.file
                    st.Xserver.Client.durable.Xlog.Wal.off
                    st.Xserver.Client.repl_next_id
                    (if st.Xserver.Client.role = `Follower then
                       Printf.sprintf "  lag %d records (%d bytes)"
                         st.Xserver.Client.lag_records
                         st.Xserver.Client.lag_bytes
                     else "")
                    (if st.Xserver.Client.leader_hint = "" then ""
                     else
                       Printf.sprintf "  (primary: %s)"
                         st.Xserver.Client.leader_hint)
                | exception Xserver.Client.Server_error (code, msg) ->
                  Printf.printf "%-28s error (%s): %s\n" addr_s
                    (Xserver.Protocol.error_code_to_string code)
                    msg
                | exception e ->
                  Printf.printf "%-28s %s\n" addr_s (Printexc.to_string e))))
      addrs
  in
  Cmd.v
    (Cmd.info "repl-status"
       ~doc:
         "Print each replica's role, epoch, durable WAL position, \
          document watermark and — for followers — replication lag in \
          records and bytes; one line per endpoint, unreachable ones \
          reported inline (the command itself always exits 0 unless an \
          address is malformed).")
    Term.(const run $ addrs)

(* --- scrub ----------------------------------------------------------------- *)

let scrub_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR|SNAPSHOT"
          ~doc:
            "A live-store directory (checkpoint + base snapshot + WAL \
             files) or a single saved index snapshot.")
  in
  let rate =
    Arg.(
      value & opt float 0.
      & info [ "rate-mb-s" ] ~docv:"MB"
          ~doc:
            "Read-bandwidth cap in MiB/s (0 = unlimited).  A running \
             server scrubs itself with $(b,serve --scrub-interval); \
             this command is the offline twin.")
  in
  let scrub_exits =
    Cmd.Exit.info ~doc:"when every checksum verified." 0
    :: Cmd.Exit.info ~doc:"on usage errors (no such file or directory)." 1
    :: Cmd.Exit.info
         ~doc:
           "when corruption was found; every bad region is listed on \
            stdout."
         exit_degraded
    :: Cmd.Exit.defaults
  in
  let run target rate =
    if not (Sys.file_exists target) then begin
      Printf.eprintf "scrub: %s: no such file or directory\n" target;
      exit 1
    end;
    if Sys.is_directory target then begin
      let r = Xlog.Scrub.scrub_dir ~rate_mb_s:rate target in
      Printf.printf "scrubbed %d files, %d bytes\n" r.Xlog.Scrub.files_scanned
        r.Xlog.Scrub.bytes_scanned;
      if r.Xlog.Scrub.errors = [] then print_endline "clean"
      else begin
        List.iter
          (fun (f, diag) -> Printf.printf "CORRUPT %s: %s\n" f diag)
          r.Xlog.Scrub.errors;
        exit exit_degraded
      end
    end
    else begin
      (* A single snapshot: opening it walks every region checksum and
         keeps none of the regions. *)
      match Xstorage.Store.open_file target with
      | store ->
        let bytes = Xstorage.Store.file_bytes store in
        Xstorage.Store.close store;
        Printf.printf "scrubbed 1 file, %d bytes\nclean\n" bytes
      | exception e ->
        Printf.printf "CORRUPT %s: %s\n" target (Printexc.to_string e);
        exit exit_degraded
    end
  in
  Cmd.v
    (Cmd.info "scrub" ~exits:scrub_exits
       ~doc:
         "Re-verify every at-rest checksum of a store directory (or a \
          single saved snapshot) — checkpoint header, base snapshot \
          regions, WAL record CRCs — and list what is corrupt.  Exits \
          4 when anything failed, so cron jobs and CI can gate on \
          silent corruption.")
    Term.(const run $ target $ rate)

(* --- query-batch ---------------------------------------------------------- *)

let query_batch_cmd =
  let queries_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"QUERIES"
          ~doc:
            "File with one XPath query per line; blank lines and lines \
             starting with $(b,#) are skipped.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains for the batch (default 1 = sequential).")
  in
  let ids_flag =
    Arg.(value & flag & info [ "ids" ] ~doc:"Print matching ids per query.")
  in
  let run input strategy queries_file domains ids_flag =
    if domains < 1 then begin
      Printf.eprintf "--domains must be at least 1\n";
      exit 1
    end;
    let index = load_or_build ~domains input (config_of_strategy strategy) in
    let lines = String.split_on_char '\n' (read_file queries_file) in
    let texts =
      List.filter
        (fun l ->
          String.trim l <> "" && not (String.length l > 0 && l.[0] = '#'))
        (List.map String.trim lines)
    in
    let patterns =
      Array.of_list
        (List.map
           (fun q ->
             try Xseq.Xpath.parse q
             with Xquery.Xpath_parser.Syntax_error { pos; msg } ->
               Printf.eprintf "%S:%d: %s\n" q pos msg;
               exit 1)
           texts)
    in
    let stats = Xquery.Matcher.create_stats () in
    let t0 = Unix.gettimeofday () in
    let results = Xseq.query_batch ~domains ~stats index patterns in
    let dt = Unix.gettimeofday () -. t0 in
    Array.iteri
      (fun i ids ->
        Printf.printf "[%d] %-48s %6d matches%s\n" i (List.nth texts i)
          (List.length ids)
          (if ids_flag then
             ": " ^ String.concat " " (List.map string_of_int ids)
           else ""))
      results;
    Printf.printf "%d queries on %d domains in %.2f ms (%.0f queries/s)\n"
      (Array.length patterns) domains (dt *. 1000.)
      (if dt > 0. then float_of_int (Array.length patterns) /. dt else 0.);
    Printf.printf "link probes: %d, candidates: %d, rejected: %d\n"
      stats.Xquery.Matcher.probes stats.Xquery.Matcher.candidates
      stats.Xquery.Matcher.rejected
  in
  Cmd.v
    (Cmd.info "query-batch"
       ~doc:
         "Answer a file of queries concurrently over one shared index. \
          Results are identical to running $(b,query) once per line, for \
          any $(b,--domains).")
    Term.(
      const run $ input_arg $ strategy_arg $ queries_arg $ domains $ ids_flag)

(* --- paths ----------------------------------------------------------------- *)

let paths_cmd =
  let top =
    Arg.(value & opt int 20 & info [ "top" ] ~doc:"How many paths to list (default 20).")
  in
  let run input strategy top =
    let index = load_or_build input (config_of_strategy strategy) in
    match Xseq.stats index with
    | None ->
      Printf.eprintf "path statistics require the probability strategy\n";
      exit 1
    | Some stats ->
      (* Enumerate the index's element paths with their estimates. *)
      let labeled = Xseq.labeled index in
      let module Path = Sequencing.Symtab.Path in
      let symbols = Xseq.symbols index in
      let rec walk acc p =
        List.fold_left
          (fun acc c -> walk ((c, Xschema.Stats.p_root stats c) :: acc) c)
          acc
          (Path.element_children symbols p)
      in
      let all = walk [] Path.epsilon in
      let sorted = List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) all in
      Printf.printf "%-44s %10s %10s\n" "path" "p(C|root)" "duplicated";
      List.iteri
        (fun i (p, prob) ->
          if i < top then
            Printf.printf "%-44s %10.4f %10b\n" (Path.to_string symbols p) prob
              (Xindex.Labeled.path_multiple labeled p))
        sorted
  in
  Cmd.v
    (Cmd.info "paths"
       ~doc:"List the most frequent element paths with their occurrence \
             probabilities — the quantities that drive gbest sequencing.")
    Term.(const run $ input_arg $ strategy_arg $ top)

(* --- explain --------------------------------------------------------------- *)

let explain_cmd =
  let query_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"XPATH" ~doc:"Query in the supported XPath fragment.")
  in
  let run input strategy q =
    let index = load_or_build input (config_of_strategy strategy) in
    let pattern = parse_xpath_or_exit q in
    let e =
      try Xseq.explain index pattern
      with Xquery.Instantiate.Too_many n ->
        Printf.eprintf
          "explain: the query's expansion exceeded the budget (%d variants); \
           query answers it with a scan of the records instead\n"
          n;
        exit 1
    in
    Printf.printf "pattern:          %s\n" e.Xquery.Engine.pattern;
    Printf.printf "instantiations:   %d\n" e.instantiations;
    Printf.printf "query sequences:  %d\n" e.sequences;
    List.iteri (fun i s -> Printf.printf "  [%d] %s\n" i s) e.sequence_texts;
    Printf.printf "link probes:      %d\n" e.stats.Xquery.Matcher.probes;
    Printf.printf "candidates:       %d\n" e.stats.Xquery.Matcher.candidates;
    Printf.printf "rejected:         %d (forward-prefix check)\n"
      e.stats.Xquery.Matcher.rejected;
    Printf.printf "results:          %d\n" e.results
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show how a query is instantiated, sequenced and matched.")
    Term.(const run $ input_arg $ strategy_arg $ query_arg)

(* --- info (on-disk snapshot TOC) ----------------------------------------- *)

let info_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SNAPSHOT"
          ~doc:"A saved index written by $(b,xseq index).")
  in
  let run input =
    if not (is_index_file input) then begin
      Printf.eprintf "%s: not an xseq index snapshot (bad magic)\n" input;
      exit 1
    end;
    let module Store = Xstorage.Store in
    (* Counts straight from the regions — no document re-interning. *)
    let store, xmeta, imeta, links, doc_entries =
      guard_snapshot input (fun () ->
          let store = Store.open_file input in
          let region name = Store.ints store name in
          let xmeta = Store.int_array store "xseq_meta" in
          if Array.length xmeta > 0 then Xseq.check_version xmeta.(0);
          let imeta = Store.int_array store "meta" in
          if Array.length xmeta <> 9 || Array.length imeta = 0 then
            invalid_arg "malformed xseq_meta/meta region";
          ( store,
            xmeta,
            imeta,
            Store.length (region "link_len"),
            Store.length (region "doc_pre") ))
    in
    let regions = Store.regions store in
    let sum field = List.fold_left (fun a r -> a + field r) 0 regions in
    let stored = sum (fun r -> r.Store.r_stored)
    and logical = sum (fun r -> r.Store.r_bytes) in
    Printf.printf "file:            %s\n" input;
    Printf.printf "format:          xseqcol2, %d-byte pages, %d bytes\n"
      (Store.page_size store) (Store.file_bytes store);
    Printf.printf "snapshot:        version %d\n" xmeta.(0);
    print_endline "paged:           yes (--paged)";
    Printf.printf "records:         %d\n" xmeta.(8);
    Printf.printf "trie nodes:      %d\n" imeta.(0);
    Printf.printf "distinct paths:  %d\n" links;
    Printf.printf "doc entries:     %d\n" doc_entries;
    Printf.printf "column bytes:    %d stored / %d logical (%.2fx compression)\n"
      stored logical
      (if stored > 0 then float_of_int logical /. float_of_int stored else 0.);
    Printf.printf "\n%-16s %-5s %12s %12s %12s %8s %12s\n" "region" "kind"
      "elements" "bytes" "stored" "pages" "offset";
    List.iter
      (fun r ->
        Printf.printf "%-16s %-5s %12d %12d %12d %8d %12d\n" r.Store.r_name
          (match r.Store.r_kind with `Ints -> "ints" | `Blob -> "blob")
          r.Store.r_count r.Store.r_bytes r.Store.r_stored r.Store.r_pages
          r.Store.r_offset)
      regions;
    Store.close store
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Print a saved index's on-disk table of contents: every region \
             with its element count, logical and stored byte sizes, page \
             count and file offset — plus the compression ratio of the \
             regions.")
    Term.(const run $ input)

(* --- index (build + save) ------------------------------------------------ *)

let index_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the index.")
  in
  let compress =
    Arg.(
      value & flag
      & info [ "compress" ]
          ~doc:
            "LZ-code the designator names: a smaller file, slower to \
             write.  Without it the label columns are still delta-packed \
             and the file still opens $(b,--paged).")
  in
  let run input strategy output compress =
    let t0 = Unix.gettimeofday () in
    (* A snapshot is loaded resident and written again, plain or
       compressed. *)
    let index =
      if is_index_file input then
        guard_snapshot input (fun () -> Xseq.load input)
      else
        Xseq.build ~config:(config_of_strategy strategy) (load_documents input)
    in
    guard_snapshot input (fun () -> Xseq.save ~compress index output);
    Printf.printf "indexed %d records into %d trie nodes; saved to %s (%.0f ms)\n"
      (Xseq.doc_count index) (Xseq.node_count index) output
      ((Unix.gettimeofday () -. t0) *. 1000.)
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Build an index over the records and save it to disk; $(b,query) \
             and $(b,stats) accept the saved file in place of the XML input.  \
             Given a saved index instead of records, rewrite it to the \
             output under the strategy it was built with \
             ($(b,--strategy) is ignored).")
    Term.(const run $ input_arg $ strategy_arg $ output $ compress)

(* Deterministic fault injection for chaos harnesses: a schedule in the
   environment (as printed by a failing torture run, or built by the
   partition-chaos smoke) arms the I/O shim before any subsystem runs —
   the whole process, sockets included, then lives under that weather. *)
let install_fault_schedule_from_env () =
  match Sys.getenv_opt "XSEQ_FAULT_SCHEDULE" with
  | None | Some "" -> ()
  | Some s -> (
    match Xfault.schedule_of_string s with
    | Ok schedule ->
      Xfault.install (Xfault.Injector.create schedule);
      Printf.eprintf "xseq: fault schedule armed: %s\n%!"
        (Xfault.schedule_to_string schedule)
    | Error msg ->
      Printf.eprintf "XSEQ_FAULT_SCHEDULE: %s\n" msg;
      exit 1)

let () =
  install_fault_schedule_from_env ();
  let doc = "sequence-based XML indexing with constraint sequences (ICDE 2005)" in
  let info = Cmd.info "xseq" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
       [ gen_cmd; index_cmd; info_cmd; stats_cmd; paths_cmd; sequence_cmd;
         query_cmd; query_batch_cmd; explain_cmd; serve_cmd; ingest_cmd;
         promote_cmd; repl_status_cmd; scrub_cmd ]))
