(* Self-healing blocking client.  See client.mli for the retry and
   idempotency contract. *)

module P = Protocol

exception Server_error of P.error_code * string
exception Protocol_error of string
exception Timeout of string

type policy = {
  attempts : int;
  connect_timeout_ms : int;
  request_timeout_ms : int;
  backoff : Backoff.t;
}

let default_policy =
  {
    attempts = 4;
    connect_timeout_ms = 5000;
    request_timeout_ms = 0;
    backoff = Backoff.default;
  }

type t = {
  addr : Server.addr;
  policy : policy;
  rng : Random.State.t;
  mutable prev_sleep_ms : int;  (** decorrelated-jitter state *)
  mutable fd : Unix.file_descr option;
  mutable closed : bool;
}

type health = {
  degraded : bool;
  reason : string;
  generation : int;
  doc_count : int;
}

(* --- connection plumbing ------------------------------------------------- *)

let now_ms () = Unix.gettimeofday () *. 1000.
let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let sockaddr_of = function
  | Server.Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback)
    in
    (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  | Server.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)

(* Non-blocking connect + select: a sharp connect timeout instead of the
   kernel's minutes-long default.  [timeout_ms <= 0] waits forever. *)
let connect_fd ~timeout_ms addr =
  let dom, sa = sockaddr_of addr in
  let fd = Unix.socket ~cloexec:true dom Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock fd;
    let wait () =
      let tmo = if timeout_ms > 0 then float_of_int timeout_ms /. 1000. else -1. in
      match Xfault.Io.retry_eintr (fun () -> Unix.select [] [ fd ] [] tmo) with
      | _, [], _ ->
        raise (Timeout (Printf.sprintf "connect: no answer within %dms" timeout_ms))
      | _ -> (
        match Unix.getsockopt_error fd with
        | None -> ()
        | Some err ->
          raise (Unix.Unix_error (err, "connect", Server.addr_to_string addr)))
    in
    (match Xfault.Io.connect fd sa with
    | () -> ()
    | exception
        Unix.Unix_error
          ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
      ->
      wait ());
    Unix.clear_nonblock fd
  with
  | () -> fd
  | exception e ->
    close_fd fd;
    raise e

let kill t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    close_fd fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    kill t
  end

let connect ?(policy = default_policy) ?seed (addr : Server.addr) =
  let rng =
    Random.State.make
      (match seed with
      | Some s -> [| s; 0xc11e |]
      | None -> [| Hashtbl.hash (Unix.gettimeofday (), Unix.getpid ()) |])
  in
  let t = { addr; policy; rng; prev_sleep_ms = 0; fd = None; closed = false } in
  (* Eager and single-shot: an unreachable endpoint raises here, not on
     the first request — callers distinguish "cannot connect" from
     "connection died" (automatic reconnection covers the latter). *)
  t.fd <- Some (connect_fd ~timeout_ms:policy.connect_timeout_ms addr);
  t

(* --- retry machinery ------------------------------------------------------ *)

(* Safe to replay after the request may have reached the server: pure
   reads.  [Unknown] is dispatched to an [Unsupported] answer without
   touching any state, so it rides along.  Everything else (Insert,
   Delete, Flush, Reload) must never be sent twice. *)
let idempotent = function
  | P.Ping | P.Query _ | P.Query_batch _ | P.Stats | P.Health | P.Unknown _
  | P.Repl_status | P.Query_bounded _ -> true
  (* Re-requesting a snapshot stream restarts (or resumes) it — the
     receiver's cursor makes the replay safe. *)
  | P.Fetch_snapshot _ -> true
  (* Promote is idempotent by contract: promoting a primary again just
     answers its current epoch. *)
  | P.Promote -> true
  (* Subscribe/Wal_ack never travel through the request/response path
     (the replication engine drives them over a raw stream); classified
     non-retryable defensively. *)
  | P.Subscribe _ | P.Wal_ack _ -> false
  | P.Reload _ | P.Insert _ | P.Delete _ | P.Flush -> false

(* Transport failures worth a reconnect-and-retry; anything else (bad
   frames, wrong peer) is a protocol bug and propagates immediately. *)
let retryable_errno = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.ECONNREFUSED
  | Unix.ENOENT | Unix.ENOTCONN | Unix.ESHUTDOWN | Unix.ETIMEDOUT
  | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.ENETDOWN | Unix.ENETRESET ->
    true
  | _ -> false

exception Transport of string (* internal: mapped before escaping *)

let set_io_timeout fd remaining_ms =
  if remaining_ms < max_int then begin
    let s = float_of_int (max 1 remaining_ms) /. 1000. in
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  end

let roundtrip ?(timeout_ms = 0) t req =
  if t.closed then raise (Protocol_error "connection is closed");
  let timeout_ms =
    if timeout_ms > 0 then timeout_ms else t.policy.request_timeout_ms
  in
  let deadline =
    if timeout_ms > 0 then Some (now_ms () +. float_of_int timeout_ms) else None
  in
  let remaining_ms () =
    match deadline with
    | None -> max_int
    | Some d ->
      let r = int_of_float (d -. now_ms ()) in
      if r <= 0 then begin
        kill t;
        raise
          (Timeout (Printf.sprintf "deadline of %dms exhausted by retries" timeout_ms))
      end;
      r
  in
  let idem = idempotent req in
  let frame = P.encode_request req in
  let rec attempt used =
    let sent = ref false in
    match
      let fd =
        match t.fd with
        | Some fd -> fd
        | None ->
          let budget = min t.policy.connect_timeout_ms (remaining_ms ()) in
          let fd = connect_fd ~timeout_ms:budget t.addr in
          t.fd <- Some fd;
          fd
      in
      set_io_timeout fd (remaining_ms ());
      sent := true;
      P.write_frame fd frame;
      (match P.read_frame fd with
      | Error P.Eof -> raise (Transport "server closed the connection")
      | Error P.Truncated -> raise (Transport "truncated response frame")
      | Error (P.Bad_header m) -> raise (Protocol_error ("bad response frame: " ^ m))
      | Ok resp ->
        (match P.decode_response resp with
        | Error m -> raise (Protocol_error ("malformed response: " ^ m))
        | Ok (P.Error { code; message }) -> raise (Server_error (code, message))
        | Ok resp -> resp))
    with
    | resp ->
      t.prev_sleep_ms <- 0;
      resp
    | exception e -> (
      let retryable, describe =
        match e with
        | Transport msg -> (true, fun () -> Protocol_error msg)
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          when deadline <> None ->
          (* The SO_RCVTIMEO/SO_SNDTIMEO we armed from the deadline
             expired mid-frame; the stream position is unknown. *)
          ( false,
            fun () ->
              Timeout (Printf.sprintf "deadline of %dms expired mid-request" timeout_ms)
          )
        | Unix.Unix_error (errno, _, _) when retryable_errno errno -> (true, fun () -> e)
        | _ -> (false, fun () -> e)
      in
      (match e with
      | Transport _ | Unix.Unix_error _ | Timeout _ -> kill t
      | _ -> ());
      let may_retry =
        retryable && (idem || not !sent) && used + 1 < t.policy.attempts
      in
      if not may_retry then raise (describe ())
      else begin
        let sleep = Backoff.next t.policy.backoff t.rng ~prev_ms:t.prev_sleep_ms in
        t.prev_sleep_ms <- sleep;
        let sleep =
          match deadline with
          | None -> sleep
          | Some d -> min sleep (max 0 (int_of_float (d -. now_ms ())))
        in
        if sleep > 0 then Thread.delay (float_of_int sleep /. 1000.);
        ignore (remaining_ms () : int);
        attempt (used + 1)
      end)
  in
  attempt 0

(* --- public operations ----------------------------------------------------- *)

let unexpected what = raise (Protocol_error ("unexpected response to " ^ what))

let ping ?timeout_ms t =
  match roundtrip ?timeout_ms t P.Ping with P.Pong -> () | _ -> unexpected "ping"

let query_full ?(timeout_ms = 0) t xpath =
  match roundtrip ~timeout_ms t (P.Query { xpath; timeout_ms }) with
  | P.Result { generation; ids } -> (generation, ids)
  | _ -> unexpected "query"

let query ?timeout_ms t xpath = snd (query_full ?timeout_ms t xpath)

let query_batch ?(timeout_ms = 0) t xpaths =
  match roundtrip ~timeout_ms t (P.Query_batch { xpaths; timeout_ms }) with
  | P.Batch_result { ids; _ } -> ids
  | _ -> unexpected "query_batch"

let stats ?timeout_ms t =
  match roundtrip ?timeout_ms t P.Stats with
  | P.Stats_json s -> s
  | _ -> unexpected "stats"

let health ?timeout_ms t =
  match roundtrip ?timeout_ms t P.Health with
  | P.Health_status { degraded; reason; generation; doc_count } ->
    { degraded; reason; generation; doc_count }
  | _ -> unexpected "health"

let reload ?timeout_ms ?path t =
  match roundtrip ?timeout_ms t (P.Reload path) with
  | P.Reloaded { generation } -> generation
  | _ -> unexpected "reload"

let insert ?timeout_ms t xml =
  match roundtrip ?timeout_ms t (P.Insert { xml }) with
  | P.Inserted { id } -> id
  | _ -> unexpected "insert"

let delete ?timeout_ms t id =
  match roundtrip ?timeout_ms t (P.Delete { id }) with
  | P.Deleted { existed } -> existed
  | _ -> unexpected "delete"

let flush ?timeout_ms t =
  match roundtrip ?timeout_ms t P.Flush with
  | P.Flushed { generation } -> generation
  | _ -> unexpected "flush"

(* --- replication ----------------------------------------------------------- *)

type repl_state = {
  role : [ `Primary | `Follower ];
  epoch : int;
  durable : Xlog.Wal.position;
  repl_next_id : int;
  leader_hint : string;
  lag_records : int;
  lag_bytes : int;
}

let promote ?timeout_ms t =
  match roundtrip ?timeout_ms t P.Promote with
  | P.Promoted { epoch } -> epoch
  | _ -> unexpected "promote"

let repl_status ?timeout_ms t =
  match roundtrip ?timeout_ms t P.Repl_status with
  | P.Repl_state
      { role; epoch; durable; next_id; leader_hint; lag_records; lag_bytes } ->
    { role; epoch; durable; repl_next_id = next_id; leader_hint; lag_records;
      lag_bytes }
  | _ -> unexpected "repl_status"

(* --- snapshot transfer ----------------------------------------------------- *)

(* Stream the server's snapshot into [dir]'s staging area and commit it
   ([Xlog.Transfer.recv_finish]); the caller (or the next [Xlog.open_])
   installs it.  Resumes across transport failures from the receiver's
   own cursor; a token change (the server checkpointed meanwhile)
   restarts the staging from scratch. *)
let fetch_snapshot ?(timeout_ms = 0) t ~dir =
  if t.closed then raise (Protocol_error "connection is closed");
  let rv = ref (Xlog.Transfer.recv_create dir) in
  let token = ref "" in
  let rec attempt used =
    match
      let fd =
        match t.fd with
        | Some fd -> fd
        | None ->
          let fd = connect_fd ~timeout_ms:t.policy.connect_timeout_ms t.addr in
          t.fd <- Some fd;
          fd
      in
      set_io_timeout fd (if timeout_ms > 0 then timeout_ms else max_int);
      P.write_frame fd
        (P.encode_request
           (P.Fetch_snapshot
              { token = !token; cursor = Xlog.Transfer.recv_got !rv }));
      let rec read_chunks () =
        match P.read_frame fd with
        | Error P.Eof | Error P.Truncated ->
          raise (Transport "connection lost mid-transfer")
        | Error (P.Bad_header m) ->
          raise (Protocol_error ("bad response frame: " ^ m))
        | Ok frame -> (
          match P.decode_response frame with
          | Error m -> raise (Protocol_error ("malformed response: " ^ m))
          | Ok (P.Error { code; message }) ->
            raise (Server_error (code, message))
          | Ok (P.Snapshot_chunk { token = tk; offset; last; crc; data; _ })
            ->
            if not (String.equal tk !token) then begin
              (* A different snapshot than the one we were resuming:
                 discard partial state and restart under the new
                 token. *)
              token := tk;
              if Xlog.Transfer.recv_got !rv > 0 then begin
                Xlog.Transfer.recv_abort !rv;
                rv := Xlog.Transfer.recv_create dir
              end
            end;
            if offset <> Xlog.Transfer.recv_got !rv then
              raise
                (Protocol_error
                   (Printf.sprintf
                      "snapshot chunk at offset %d, expected %d" offset
                      (Xlog.Transfer.recv_got !rv)));
            if
              not
                (Int64.equal crc
                   (Xstorage.Store.checksum_string data 0
                      (String.length data)))
            then raise (Transport "snapshot chunk failed its checksum");
            (match Xlog.Transfer.recv_write !rv data with
            | Ok () -> ()
            | Error m -> raise (Protocol_error ("snapshot stream: " ^ m)));
            if last then
              match Xlog.Transfer.recv_finish !rv with
              | Ok () -> ()
              | Error m -> raise (Protocol_error ("snapshot verify: " ^ m))
            else read_chunks ()
          | Ok _ -> unexpected "fetch_snapshot")
      in
      read_chunks ()
    with
    | () ->
      t.prev_sleep_ms <- 0;
      Xlog.Transfer.recv_got !rv
    | exception e ->
      kill t;
      let retryable =
        match e with
        | Transport _ -> true
        | Unix.Unix_error (errno, _, _) -> retryable_errno errno
        | _ -> false
      in
      if retryable && used + 1 < t.policy.attempts then begin
        let sleep =
          Backoff.next t.policy.backoff t.rng ~prev_ms:t.prev_sleep_ms
        in
        t.prev_sleep_ms <- sleep;
        if sleep > 0 then Thread.delay (float_of_int sleep /. 1000.);
        attempt (used + 1)
      end
      else begin
        Xlog.Transfer.recv_abort !rv;
        match e with
        | Transport msg -> raise (Protocol_error msg)
        | e -> raise e
      end
  in
  attempt 0

let query_bounded ?(timeout_ms = 0) ~min_gen t xpath =
  match roundtrip ~timeout_ms t (P.Query_bounded { xpath; timeout_ms; min_gen }) with
  | P.Result { generation; ids } -> (generation, ids)
  | _ -> unexpected "query_bounded"

(* --- pipelining ------------------------------------------------------------ *)

let pipeline ?(timeout_ms = 0) t reqs =
  if t.closed then raise (Protocol_error "connection is closed");
  match reqs with
  | [] -> []
  | _ ->
    let fd =
      match t.fd with
      | Some fd -> fd
      | None ->
        let fd = connect_fd ~timeout_ms:t.policy.connect_timeout_ms t.addr in
        t.fd <- Some fd;
        fd
    in
    let timeout_ms =
      if timeout_ms > 0 then timeout_ms else t.policy.request_timeout_ms
    in
    set_io_timeout fd (if timeout_ms > 0 then timeout_ms else max_int);
    (* Single attempt, deliberately: once part of a burst may have
       reached the server, replaying it could duplicate non-idempotent
       requests, and a half-read response stream cannot be resumed.
       Any failure kills the connection and raises.  Responses come
       back through the incremental decoder over large reads — a burst
       costs one write and a handful of recvs, not 2 syscalls per
       frame. *)
    (match
       P.write_frame fd (String.concat "" (List.map P.encode_request reqs));
       let dec = P.Decoder.create () in
       let buf = Bytes.create 65536 in
       let rec read_response () =
         match P.Decoder.next dec with
         | P.Decoder.Frame frame -> (
           match P.decode_response frame with
           | Error m -> raise (Protocol_error ("malformed response: " ^ m))
           | Ok resp -> resp)
         | P.Decoder.Corrupt m ->
           raise (Protocol_error ("bad response frame: " ^ m))
         | P.Decoder.Need_more -> (
           match Xfault.Io.recv fd buf 0 (Bytes.length buf) with
           | 0 ->
             raise
               (Transport
                  (if P.Decoder.buffered dec = 0 then
                     "server closed the connection"
                   else "truncated response frame"))
           | n ->
             P.Decoder.feed dec buf 0 n;
             read_response ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_response ())
       in
       List.map (fun _ -> read_response ()) reqs
     with
     | resps -> resps
     | exception e ->
       kill t;
       (match e with
        | Transport msg -> raise (Protocol_error msg)
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          when timeout_ms > 0 ->
          raise
            (Timeout
               (Printf.sprintf "deadline of %dms expired mid-pipeline"
                  timeout_ms))
        | e -> raise e))

let query_pipeline ?(timeout_ms = 0) t xpaths =
  let reqs = List.map (fun xpath -> P.Query { xpath; timeout_ms }) xpaths in
  List.map
    (function
      | P.Result { ids; _ } -> ids
      | P.Error { code; message } -> raise (Server_error (code, message))
      | _ -> unexpected "query")
    (pipeline ~timeout_ms t reqs)

let with_connection ?policy ?seed addr f =
  let t = connect ?policy ?seed addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
