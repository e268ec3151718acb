(* The primary's half of replication: the WAL subscription pump with
   its idle heartbeats, the semi-sync ack floor and the mutations parked
   on it, the snapshot-transfer sender, and the WAL retention pin that
   keeps the files subscriptions and transfers still have to read.
   Role, epoch and promotion live with whoever built the hooks
   ([Xrepl]) — xserver never links against xrepl.

   This module never touches a connection.  It reaches one through the
   event core's {!sink}, over a connection type ['c] it cannot look
   into, and keeps its per-connection state in a {!peer} the core
   stores beside the connection.  Subscriptions, acks and transfers run
   on the loop thread that owns the connection; {!park} and the answers
   of {!promote}, {!status} and {!refuse_write} run on workers.  The
   lists shared across threads are guarded by [m]. *)

module P = Protocol

type hooks = {
  repl_log : Xlog.t;  (** the replicated store — must be the served source *)
  repl_role : unit -> [ `Primary | `Follower ];
  repl_epoch : unit -> int;
  repl_leader_hint : unit -> string;  (** "" when unknown *)
  repl_promote : unit -> (int, string) result;
  repl_observe_epoch : int -> unit;
      (** a subscriber announced this epoch; a primary seeing a higher
          one was deposed and must step down (fencing) *)
  repl_lag : unit -> int * int;
      (** (records, bytes) this node trails its primary; (0, 0) on a
          primary *)
  repl_sync_replicas : int;
      (** mutations are acknowledged only once this many subscribers
          durably hold them; 0 = asynchronous *)
  repl_ack_timeout_ms : int;
      (** parked mutations answer [Timeout] after this long without
          enough acks (the write {e is} applied locally — the client
          must treat it as indeterminate, exactly like any timeout) *)
}

(* What replication may do to a connection. *)
type 'c sink = {
  push : 'c -> P.response -> unit;
      (** encode a slot-less frame onto the output queue; the core
          decides when to hit the socket *)
  room : 'c -> int;  (** queued output bytes left under the high-water mark *)
  close_after_flush : 'c -> unit;
}

(* One outbound snapshot transfer. *)
type xfer = {
  xf_dir : string;
  xf_manifest : Xlog.Transfer.manifest;
  mutable xf_offset : int;  (** next stream byte to ship *)
}

(* One live WAL subscription.  Once a connection subscribes it has left
   the request/response model: the server pushes batches and
   heartbeats, the peer sends only acks. *)
type 'c sub = {
  s_conn : 'c;
  s_peer : 'c peer;
  mutable s_cursor : Xlog.Wal.position;  (** next byte to ship *)
  mutable s_acked : Xlog.Wal.position;
      (** highest position the subscriber durably applied *)
  mutable s_last_send : float;  (** heartbeat pacing *)
}

(* A connection's replication state, owned by its loop thread. *)
and 'c peer = {
  mutable p_sub : 'c sub option;
  mutable p_xfer : xfer option;
      (** [Some _] while a snapshot transfer is streaming out: chunks
          refill the output queue as the kernel drains it, under the
          same high-water mark as every other push *)
}

(* A mutation response parked until [repl_sync_replicas] subscribers
   acknowledge the log position it produced (semi-synchronous
   replication): the client's ack then implies the record survives the
   primary's death. *)
type waiter = {
  w_reply : P.response -> unit;  (** posts to the request's slot *)
  w_resp : P.response;
  w_pos : Xlog.Wal.position;  (** durable position the record is under *)
  w_deadline : float;
}

type 'c t = {
  hooks : hooks option;  (** [None]: a node with no replication role *)
  sink : 'c sink;
  m : Mutex.t;  (** guards [subs], [waiters] and [xfers] *)
  mutable subs : 'c sub list;
  mutable waiters : waiter list;
  mutable xfers : xfer list;
      (** live snapshot transfers: their manifests pin the WAL file the
          stream still has to read through the retention hook *)
}

(* Snapshot-transfer chunk size: a few chunks fit under the high-water
   mark, so the stream refills in kernel-drain-sized steps without ever
   parking more than the mark. *)
let xfer_chunk = 256 * 1024

let locked r f = Mutex.protect r.m f
let peer () = { p_sub = None; p_xfer = None }

let create hooks sink =
  let r =
    { hooks; sink; m = Mutex.create (); subs = []; waiters = []; xfers = [] }
  in
  (* Live subscriptions pin the WAL files they still have to read:
     pruning past a cursor is survivable (Position_pruned + re-seed)
     but never free, so checkpoints keep them.  Snapshot transfers pin
     the file their manifest's WAL prefix lives in — pruning it
     mid-stream would only force the fetcher to restart. *)
  Option.iter
    (fun h ->
      Xlog.set_wal_retention h.repl_log (fun () ->
          locked r (fun () ->
              match
                List.map (fun s -> s.s_cursor.Xlog.Wal.file) r.subs
                @ List.map
                    (fun x -> x.xf_manifest.Xlog.Transfer.x_wal_index)
                    r.xfers
              with
              | [] -> None
              | f :: fs -> Some (List.fold_left min f fs))))
    hooks;
  r

(* --- answers -------------------------------------------------------------- *)

let no_role ?(why = "") () =
  P.error P.Unsupported "this server has no replication role%s" why

(* The message of a [Not_primary] answer {e is} the leader endpoint
   hint — the client chases it instead of retrying here. *)
let not_primary h = P.error P.Not_primary "%s" (h.repl_leader_hint ())

let heartbeat h =
  P.Repl_heartbeat
    {
      epoch = h.repl_epoch ();
      durable = Xlog.wal_durable_position h.repl_log;
      next_id = Xlog.next_id h.repl_log;
    }

(* A follower refuses mutations. *)
let refuse_write r =
  match r.hooks with
  | Some h when h.repl_role () = `Follower -> Some (not_primary h)
  | _ -> None

(* The staleness guard of a bounded read: one atomic id-watermark read,
   so it runs on the loop thread and only reads that pass pay
   admission. *)
let refuse_bounded r ~min_gen =
  match r.hooks with
  | None -> Some (no_role ~why:" (bounded-staleness reads need one)" ())
  | Some h when Xlog.next_id h.repl_log < min_gen -> Some (not_primary h)
  | Some _ -> None

let promote r =
  match r.hooks with
  | None -> no_role ()
  | Some h -> (
    match h.repl_promote () with
    | Ok epoch -> P.Promoted { epoch }
    | Error m -> P.error P.Server_error "promote failed: %s" m
    | exception e ->
      P.error P.Server_error "promote failed: %s" (Printexc.to_string e))

let status r =
  match r.hooks with
  | None -> no_role ()
  | Some h ->
    let lag_records, lag_bytes = h.repl_lag () in
    P.Repl_state
      {
        role = h.repl_role ();
        epoch = h.repl_epoch ();
        durable = Xlog.wal_durable_position h.repl_log;
        next_id = Xlog.next_id h.repl_log;
        leader_hint = h.repl_leader_hint ();
        lag_records;
        lag_bytes;
      }

let stats r =
  match r.hooks with
  | None -> []
  | Some h ->
    let lag_records, lag_bytes = h.repl_lag () in
    let nsubs, nwait =
      locked r (fun () -> (List.length r.subs, List.length r.waiters))
    in
    let d = Xlog.wal_durable_position h.repl_log in
    [
      ( "repl",
        Printf.sprintf
          "{\"role\": %S, \"epoch\": %d, \"durable_file\": %d, \
           \"durable_off\": %d, \"next_id\": %d, \"leader_hint\": %S, \
           \"subscribers\": %d, \"parked_mutations\": %d, \
           \"repl_lag_records\": %d, \"repl_lag_bytes\": %d}"
          (match h.repl_role () with
           | `Primary -> "primary"
           | `Follower -> "follower")
          (h.repl_epoch ()) d.Xlog.Wal.file d.Xlog.Wal.off
          (Xlog.next_id h.repl_log) (h.repl_leader_hint ()) nsubs nwait
          lag_records lag_bytes );
    ]

(* --- semi-sync ------------------------------------------------------------ *)

(* Which requests change the store: the ones whose completion should
   wake the loops so subscription pumps ship the new records without
   waiting out a tick. *)
let mutation = function
  | P.Insert _ | P.Delete _ | P.Flush -> true
  | _ -> false

let wakes_pumps r req = r.hooks <> None && mutation req

(* Semi-sync parking, decided on the worker after the mutation applied:
   force the record to stable storage locally (the position a follower
   acks must exist durably on both sides), then hold the response until
   {!release} sees enough acks.  A failed sync skips parking — the
   response goes out as-is and the local degrade machinery has already
   flipped the store read-only.  [true] iff parked: [reply] then
   delivers the verdict. *)
let park r req resp ~reply =
  match r.hooks with
  | Some h
    when h.repl_sync_replicas > 0 && mutation req
         && (match resp with P.Error _ -> false | _ -> true)
         && h.repl_role () = `Primary -> (
    match Xlog.sync h.repl_log with
    | exception _ -> false
    | () ->
      let w =
        {
          w_reply = reply;
          w_resp = resp;
          w_pos = Xlog.wal_durable_position h.repl_log;
          w_deadline =
            Unix.gettimeofday ()
            +. (float_of_int (max 1 h.repl_ack_timeout_ms) /. 1000.);
        }
      in
      locked r (fun () -> r.waiters <- w :: r.waiters);
      true)
  | _ -> false

(* Release parked mutations: the semi-sync floor is the k-th highest
   subscriber ack (k = [repl_sync_replicas]); everything at or under it
   is replicated widely enough to acknowledge.  Expired waiters answer
   [Timeout] — the write applied locally but the replicas are silent,
   the same indeterminate verdict as any timeout. *)
let release r h =
  let now = Unix.gettimeofday () in
  let ready, expired =
    locked r (fun () ->
        let k = h.repl_sync_replicas in
        let floor =
          let acks =
            List.sort
              (fun a b -> Xlog.Wal.position_compare b a)
              (List.map (fun s -> s.s_acked) r.subs)
          in
          if k > 0 && List.length acks >= k then Some (List.nth acks (k - 1))
          else None
        in
        let ready, expired, keep =
          List.fold_left
            (fun (rd, ex, kp) w ->
              match floor with
              | Some f when Xlog.Wal.position_compare w.w_pos f <= 0 ->
                (w :: rd, ex, kp)
              | _ ->
                if now > w.w_deadline then (rd, w :: ex, kp)
                else (rd, ex, w :: kp))
            ([], [], []) r.waiters
        in
        r.waiters <- List.rev keep;
        (ready, expired))
  in
  List.iter (fun w -> w.w_reply w.w_resp) ready;
  List.iter
    (fun w ->
      w.w_reply
        (P.error P.Timeout
           "replicated to fewer than %d replica(s) within %dms (the write \
            is applied locally; its replication is indeterminate)"
           h.repl_sync_replicas h.repl_ack_timeout_ms))
    expired

(* --- subscriptions -------------------------------------------------------- *)

let current sub =
  match sub.s_peer.p_sub with Some s -> s == sub | None -> false

(* Dead or finished subscriber: stop pinning its WAL files and drop its
   ack from the semi-sync floor (parked mutations now waiting on a
   replica that no longer exists time out). *)
let drop_sub r sub =
  sub.s_peer.p_sub <- None;
  locked r (fun () -> r.subs <- List.filter (fun s -> s != sub) r.subs)

(* The stream ends with [resp]; the connection closes once it is out. *)
let end_sub r sub resp =
  r.sink.push sub.s_conn resp;
  drop_sub r sub;
  r.sink.close_after_flush sub.s_conn

(* Ship everything committed past the cursor, bounded by the write-side
   backpressure mark: a slow subscriber pins at most the high-water mark
   of encoded batches, and the pump resumes from its cursor once the
   kernel drains them. *)
let pump r h sub =
  let c = sub.s_conn in
  if current sub then
    if h.repl_role () <> `Primary then
      (* Deposed mid-stream: the subscriber must chase the new leader. *)
      end_sub r sub (not_primary h)
    else begin
      let dir = Xlog.dir h.repl_log in
      let rec go sent =
        if r.sink.room c < 0 then sent
        else
          match Xlog.Wal.tail ~dir sub.s_cursor with
          | Ok b
            when b.Xlog.Wal.b_count > 0
                 || Xlog.Wal.position_compare b.Xlog.Wal.b_next sub.s_cursor
                    <> 0 ->
            (* A zero-record batch that still advances mirrors a file
               rotation — the follower must replay it as one. *)
            r.sink.push c
              (P.Wal_batch
                 {
                   epoch = h.repl_epoch ();
                   from = sub.s_cursor;
                   next = b.Xlog.Wal.b_next;
                   count = b.Xlog.Wal.b_count;
                   records = b.Xlog.Wal.b_records;
                 });
            sub.s_cursor <- b.Xlog.Wal.b_next;
            go true
          | Ok _ -> sent
          | Error (Xlog.Wal.Position_pruned { earliest }) ->
            end_sub r sub
              (P.error P.Pruned
                 "wal pruned past the subscription; earliest retained \
                  position is %s"
                 (Xlog.Wal.position_to_string earliest));
            sent
          | Error (Xlog.Wal.Tail_error m) ->
            end_sub r sub (P.error P.Server_error "wal tail: %s" m);
            sent
      in
      let sent = go false in
      let now = Unix.gettimeofday () in
      if sent then sub.s_last_send <- now
      else if current sub && now -. sub.s_last_send > 1.0 then begin
        (* Idle heartbeat: lets the follower tell a quiet primary from a
           dead one, and keeps its staleness watermark fresh. *)
        r.sink.push c (heartbeat h);
        sub.s_last_send <- now
      end
    end

(* [None]: the connection is now a WAL stream, its first frames queued.
   [Some resp]: the answer to the request instead. *)
let subscribe r c peer ~epoch ~pos =
  match r.hooks with
  | None -> Some (no_role ())
  | Some h ->
    (* Fencing, server side: a subscriber that has seen a higher epoch
       proves this primary was deposed while it was away — step down
       before deciding the role answer below. *)
    h.repl_observe_epoch epoch;
    if h.repl_role () <> `Primary then Some (not_primary h)
    else if peer.p_sub <> None then
      Some (P.error P.Bad_request "connection is already subscribed")
    else begin
      let sub =
        { s_conn = c; s_peer = peer; s_cursor = pos; s_acked = pos;
          s_last_send = 0. }
      in
      peer.p_sub <- Some sub;
      locked r (fun () -> r.subs <- sub :: r.subs);
      (* One immediate heartbeat — the subscriber learns the primary's
         epoch and durable end before the first batch — then whatever
         the log already holds past its cursor. *)
      r.sink.push c (heartbeat h);
      sub.s_last_send <- Unix.gettimeofday ();
      pump r h sub;
      None
    end

(* The subscriber durably applied the stream up to [pos]: one-way, so
   [Some] only for a node with no replication role (a misdirected
   client is told, not silently ignored).  On a connection that never
   subscribed the frame is meaningless and dropped. *)
let wal_ack r peer pos =
  match (r.hooks, peer.p_sub) with
  | None, _ -> Some (no_role ())
  | Some h, Some sub ->
    if Xlog.Wal.position_compare pos sub.s_acked > 0 then sub.s_acked <- pos;
    release r h;
    None
  | Some _, None -> None

(* Per-tick work for one loop: pump the subscriptions on connections
   [mine] accepts (connection state is loop-affine), and sweep the
   semi-sync waiters for expiry — acks release them promptly from the
   ack path; the tick only bounds how late a timeout verdict can be.
   Returns the connections pumped, whose output the core writes. *)
let tick r ~mine =
  match r.hooks with
  | None -> []
  | Some h ->
    let subs, have_waiters =
      locked r (fun () ->
          (List.filter (fun s -> mine s.s_conn) r.subs, r.waiters <> []))
    in
    List.iter (pump r h) subs;
    if have_waiters then release r h;
    List.map (fun s -> s.s_conn) subs

(* --- snapshot transfer (sender side) -------------------------------------- *)

let drop_xfer r peer =
  match peer.p_xfer with
  | None -> ()
  | Some xf ->
    peer.p_xfer <- None;
    locked r (fun () -> r.xfers <- List.filter (fun x -> x != xf) r.xfers)

(* [None]: a stream of [log]'s latest checkpoint starts, its chunks
   produced by {!refill}.  [Some resp]: the answer instead ([log] is
   [None] when the server does not serve a live store). *)
let fetch_snapshot r peer ~log ~token ~cursor =
  if peer.p_sub <> None then
    Some (P.error P.Bad_request "connection is subscribed to the WAL stream")
  else
    match log with
    | None ->
      Some
        (P.error P.Unsupported
           "snapshot transfer requires serving a live store")
    | Some log -> (
      (* A re-request supersedes any transfer already streaming on this
         connection — the resume/restart decision is the client's. *)
      drop_xfer r peer;
      let dir = Xlog.dir log in
      match Xlog.Transfer.manifest_of_dir dir with
      | Error m -> Some (P.error P.Server_error "snapshot transfer: %s" m)
      | Ok man ->
        (* Resume only when the fetcher holds the current snapshot's
           token and a sane cursor; anything else restarts at 0 under
           the (possibly new) token. *)
        let offset =
          if
            String.equal token man.Xlog.Transfer.x_token
            && cursor >= 0
            && cursor <= man.Xlog.Transfer.x_total
          then cursor
          else 0
        in
        let xf = { xf_dir = dir; xf_manifest = man; xf_offset = offset } in
        peer.p_xfer <- Some xf;
        locked r (fun () -> r.xfers <- xf :: r.xfers);
        None)

(* Push stream chunks up to the backpressure mark.  [true] iff anything
   was pushed. *)
let refill r c peer =
  match peer.p_xfer with
  | None -> false
  | Some xf ->
    let m = xf.xf_manifest in
    let rec go filled =
      if r.sink.room c < 0 then filled
      else
        let len = min xfer_chunk (m.Xlog.Transfer.x_total - xf.xf_offset) in
        match Xlog.Transfer.read_slice xf.xf_dir m ~off:xf.xf_offset ~len with
        | Error msg ->
          (* The files moved under the manifest (a compaction pruned the
             WAL prefix mid-stream): fail this transfer; the fetcher
             re-requests and restarts under a fresh token. *)
          r.sink.push c (P.error P.Server_error "snapshot transfer: %s" msg);
          drop_xfer r peer;
          true
        | Ok data ->
          let dlen = String.length data in
          let last = xf.xf_offset + dlen >= m.Xlog.Transfer.x_total in
          r.sink.push c
            (P.Snapshot_chunk
               {
                 token = m.Xlog.Transfer.x_token;
                 total = m.Xlog.Transfer.x_total;
                 offset = xf.xf_offset;
                 last;
                 crc = Xstorage.Store.checksum_string data 0 dlen;
                 data;
               });
          xf.xf_offset <- xf.xf_offset + dlen;
          if last then begin
            drop_xfer r peer;
            true
          end
          else go true
    in
    go false

let disconnect r peer =
  Option.iter (drop_sub r) peer.p_sub;
  drop_xfer r peer
