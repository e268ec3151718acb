(* The replication engine.  See xrepl.mli for the architecture. *)

module P = Xserver.Protocol
module Server = Xserver.Server
module Client = Xserver.Client

module Meta = struct
  type role = [ `Primary | `Follower ]

  type t = { epoch : int; role : role }

  let file dir = Filename.concat dir "repl.meta"

  let load dir =
    match open_in_bin (file dir) with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | line -> (
            match String.split_on_char ' ' (String.trim line) with
            | [ "xreplmeta1"; e; r ] -> (
              match (int_of_string_opt e, r) with
              | Some epoch, "primary" -> Some { epoch; role = `Primary }
              | Some epoch, "follower" -> Some { epoch; role = `Follower }
              | _ -> None)
            | _ -> None)
          | exception End_of_file -> None)

  (* tmp + fsync + rename + dir fsync: the epoch/role transition is the
     fencing record — it must not be lost or torn by kill -9. *)
  let store dir t =
    let path = file dir in
    let tmp = path ^ ".tmp" in
    let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let line =
          Printf.sprintf "xreplmeta1 %d %s\n" t.epoch
            (match t.role with `Primary -> "primary" | `Follower -> "follower")
        in
        let n = Unix.write_substring fd line 0 (String.length line) in
        if n <> String.length line then
          raise (Unix.Unix_error (Unix.EIO, "write", tmp));
        Unix.fsync fd);
    Unix.rename tmp path;
    (match Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 with
     | dfd ->
       (try Unix.fsync dfd with Unix.Unix_error _ -> ());
       (try Unix.close dfd with Unix.Unix_error _ -> ())
     | exception Unix.Unix_error _ -> ())
end

module Node = struct
  type config = {
    advertise : string;
    follow : string option;
    peers : string list;
    sync_replicas : int;
    ack_timeout_ms : int;
    heartbeat_timeout_ms : int;
    auto_promote : bool;
    retry_ms : int;
  }

  let default_config =
    {
      advertise = "";
      follow = None;
      peers = [];
      sync_replicas = 0;
      ack_timeout_ms = 5000;
      heartbeat_timeout_ms = 3000;
      auto_promote = false;
      retry_ms = 500;
    }

  type t = {
    cfg : config;
    log : Xlog.t;
    m : Mutex.t;
    mutable role : Meta.role;
    mutable epoch : int;
    mutable leader : string;  (* known primary endpoint, "" unknown *)
    mutable lag : int * int;  (* (records, bytes) behind the primary *)
    mutable watermark : int * Xlog.Wal.position;
        (* the primary's (next_id, durable) per its last heartbeat —
           lag is recomputed against it after every applied batch, so a
           caught-up follower reads 0 without waiting for the next
           heartbeat *)
    mutable err : string option;
    mutable reseed_req : bool;
        (* a repair (scrub quarantine, operator) asked for a full
           re-seed from the primary before the next subscription *)
    mutable stop_flag : bool;
    mutable thread : Thread.t option;
    mutable sub_fd : Unix.file_descr option;
        (* live subscription socket; shutdown() from [stop] unblocks the
           reader promptly *)
  }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let persist_locked t =
    Meta.store (Xlog.dir t.log) { Meta.epoch = t.epoch; role = t.role }

  let create cfg log =
    let dir = Xlog.dir log in
    let meta = Meta.load dir in
    let role, epoch =
      match (cfg.follow, meta) with
      (* an explicit --follow demotes whatever the meta says: the
         operator is re-seating this node under a primary *)
      | Some _, Some m -> (`Follower, m.Meta.epoch)
      | Some _, None -> (`Follower, 0)
      | None, Some m -> (m.Meta.role, m.Meta.epoch)
      | None, None -> (`Primary, 0)
    in
    let t =
      {
        cfg;
        log;
        m = Mutex.create ();
        role;
        epoch;
        leader = Option.value cfg.follow ~default:"";
        lag = (0, 0);
        watermark = (0, Xlog.Wal.start_position);
        err = None;
        reseed_req = false;
        stop_flag = false;
        thread = None;
        sub_fd = None;
      }
    in
    locked t (fun () -> persist_locked t);
    t

  let role t = locked t (fun () -> t.role)
  let epoch t = locked t (fun () -> t.epoch)
  let lag t = locked t (fun () -> t.lag)

  (* [t.m] held.  Distance to the primary's last announced watermark;
     bytes only compare within the same file (cross-file gaps are
     reported in records). *)
  let update_lag_locked t =
    let pn, pd = t.watermark in
    let local = Xlog.wal_durable_position t.log in
    let bytes =
      if pd.Xlog.Wal.file = local.Xlog.Wal.file then
        max 0 (pd.Xlog.Wal.off - local.Xlog.Wal.off)
      else 0
    in
    t.lag <- (max 0 (pn - Xlog.next_id t.log), bytes)
  let last_error t = locked t (fun () -> t.err)
  let request_reseed t = locked t (fun () -> t.reseed_req <- true)

  let leader_hint t =
    locked t (fun () -> match t.role with `Primary -> "" | `Follower -> t.leader)

  let promote t =
    locked t (fun () ->
        match t.role with
        | `Primary -> Ok t.epoch
        | `Follower -> (
          let epoch = t.epoch + 1 in
          let prev_role, prev_epoch = (t.role, t.epoch) in
          t.role <- `Primary;
          t.epoch <- epoch;
          t.leader <- "";
          t.lag <- (0, 0);
          match persist_locked t with
          | () -> Ok epoch
          | exception e ->
            (* an unpersisted promotion must not take effect: a restart
               would resurrect the old role with a stale epoch *)
            t.role <- prev_role;
            t.epoch <- prev_epoch;
            Error (Printexc.to_string e)))

  (* Fencing: a peer (subscriber or stream) proved a higher epoch
     exists — a primary hearing this was deposed and steps down. *)
  let observe_epoch t e =
    locked t (fun () ->
        if e > t.epoch then begin
          t.epoch <- e;
          if t.role = `Primary then begin
            t.role <- `Follower;
            t.leader <- ""
          end;
          try persist_locked t with _ -> ()
        end)

  let hooks t =
    {
      Server.repl_log = t.log;
      repl_role = (fun () -> role t);
      repl_epoch = (fun () -> epoch t);
      repl_leader_hint = (fun () -> leader_hint t);
      repl_promote = (fun () -> promote t);
      repl_observe_epoch = observe_epoch t;
      repl_lag = (fun () -> lag t);
      repl_sync_replicas = t.cfg.sync_replicas;
      repl_ack_timeout_ms = t.cfg.ack_timeout_ms;
    }

  (* --- the follower stream ------------------------------------------------ *)

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let connect_to ep =
    match Server.addr_of_string ep with
    | Error m -> Error m
    | Ok addr -> (
      let dom, sa =
        match addr with
        | Server.Tcp (host, port) ->
          let inet =
            try Unix.inet_addr_of_string host
            with Failure _ -> (
              try (Unix.gethostbyname host).Unix.h_addr_list.(0)
              with Not_found -> Unix.inet_addr_loopback)
          in
          (Unix.PF_INET, Unix.ADDR_INET (inet, port))
        | Server.Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      in
      let fd = Unix.socket ~cloexec:true dom Unix.SOCK_STREAM 0 in
      match Unix.connect fd sa with
      | () -> Ok fd
      | exception e ->
        close_quietly fd;
        Error (Printexc.to_string e))

  (* One subscription session against [ep]; returns why it ended. *)
  let follow_once t ep =
    match connect_to ep with
    | Error _ -> `Dead
    | Ok fd ->
      locked t (fun () -> t.sub_fd <- Some fd);
      let finish verdict =
        locked t (fun () -> t.sub_fd <- None);
        close_quietly fd;
        verdict
      in
      (* The receive timeout doubles as the liveness detector: a healthy
         primary heartbeats about once a second. *)
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO
           (float_of_int (max 1 t.cfg.heartbeat_timeout_ms) /. 1000.)
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let subscribed =
        try
          P.write_frame fd
            (P.encode_request
               (P.Subscribe
                  { epoch = epoch t; pos = Xlog.wal_position t.log }));
          true
        with _ -> false
      in
      let rec recv_loop () =
        if locked t (fun () -> t.stop_flag) then finish `Stopped
        else if role t = `Primary then finish `Stopped
        else
          match P.read_frame fd with
          | Error (P.Eof | P.Truncated) -> finish `Dead
          | Error (P.Bad_header m) -> finish (`Fatal ("bad stream frame: " ^ m))
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            -> finish `Silent
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv_loop ()
          | exception Unix.Unix_error _ -> finish `Dead
          | Ok frame -> (
            match P.decode_response frame with
            | Error m -> finish (`Fatal ("malformed stream frame: " ^ m))
            | Ok resp -> handle resp)
      and handle = function
        | P.Wal_batch { epoch = e; from; next; count = _; records } ->
          let mine = epoch t in
          if e < mine then
            (* a resurrected old primary: refuse its stream outright *)
            finish `Refused
          else begin
            if e > mine then observe_epoch t e;
            match Xlog.replica_apply t.log ~from ~next records with
            | Ok durable -> (
              locked t (fun () -> update_lag_locked t);
              match
                P.write_frame fd (P.encode_request (P.Wal_ack { pos = durable }))
              with
              | () -> recv_loop ()
              | exception _ -> finish `Dead)
            | Error msg ->
              (* cursor mismatch or a batch that fails validation:
                 resubscribe from the real log end *)
              locked t (fun () ->
                  t.err <- Some (Printf.sprintf "batch refused: %s" msg));
              finish `Dead
            | exception Xlog.Degraded reason ->
              finish (`Fatal ("replica store degraded: " ^ reason))
          end
        | P.Repl_heartbeat { epoch = e; durable; next_id } ->
          let mine = epoch t in
          if e < mine then finish `Refused
          else begin
            if e > mine then observe_epoch t e;
            locked t (fun () ->
                t.watermark <- (next_id, durable);
                update_lag_locked t;
                t.err <- None);
            recv_loop ()
          end
        | P.Error { code = P.Not_primary; message = hint } ->
          finish (`Redirect hint)
        | P.Error { code = P.Pruned; message } ->
          (* the primary compacted past our cursor: WAL replay cannot
             reach us any more — fall back to a snapshot transfer *)
          finish (`Reseed message)
        | P.Error { code; message } ->
          locked t (fun () ->
              t.err <-
                Some
                  (Printf.sprintf "stream error %s: %s"
                     (P.error_code_to_string code)
                     message));
          finish `Dead
        | _ -> recv_loop ()
      in
      if subscribed then recv_loop () else finish `Dead

  (* --- election ----------------------------------------------------------- *)

  let probe_policy =
    {
      Client.default_policy with
      attempts = 1;
      connect_timeout_ms = 500;
      request_timeout_ms = 1000;
    }

  let probe_peer ep =
    match Server.addr_of_string ep with
    | Error _ -> None
    | Ok addr -> (
      match Client.connect ~policy:probe_policy addr with
      | exception _ -> None
      | c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.repl_status ~timeout_ms:1000 c with
            | st -> Some st
            | exception _ -> None))

  (* The primary went silent: find a live primary to follow, or decide
     whether this node wins the election (highest durable position;
     advertise-string order breaks ties) and promote it. *)
  let try_elect t =
    let peers =
      List.filter (fun ep -> ep <> t.cfg.advertise && ep <> "") t.cfg.peers
    in
    let reachable =
      List.filter_map
        (fun ep -> Option.map (fun st -> (ep, st)) (probe_peer ep))
        peers
    in
    match
      List.find_opt
        (fun (_, st) ->
          st.Client.role = `Primary && st.Client.epoch >= epoch t)
        reachable
    with
    | Some (ep, st) ->
      (* someone is already primary: follow them *)
      observe_epoch t st.Client.epoch;
      locked t (fun () -> t.leader <- ep)
    | None ->
      let mine = Xlog.wal_durable_position t.log in
      let beats (ep, st) =
        let c = Xlog.Wal.position_compare st.Client.durable mine in
        c > 0 || (c = 0 && ep < t.cfg.advertise)
      in
      if List.exists beats reachable then
        (* a better-positioned follower exists; it will promote itself
           and we will find it on the next probe *)
        ()
      else
        match promote t with
        | Ok _ -> ()
        | Error m ->
          locked t (fun () -> t.err <- Some ("auto-promotion failed: " ^ m))

  (* --- snapshot re-seed ---------------------------------------------------- *)

  let reseed_policy =
    {
      Client.default_policy with
      attempts = 5;
      connect_timeout_ms = 2000;
      request_timeout_ms = 0;
    }

  (* Pull the primary's latest checkpoint into the staging area
     ([Client.fetch_snapshot] resumes across transport failures and
     commits to [xfer.ready]), then install it over the live store.
     On success the WAL cursor is the snapshot cut: the next
     subscription resumes tailing exactly where the stream stopped. *)
  let reseed_from t ep =
    match Server.addr_of_string ep with
    | Error m -> Error (Printf.sprintf "reseed: bad endpoint %S: %s" ep m)
    | Ok addr -> (
      match Client.connect ~policy:reseed_policy addr with
      | exception e -> Error ("reseed: " ^ Printexc.to_string e)
      | c ->
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            match Client.fetch_snapshot c ~dir:(Xlog.dir t.log) with
            | exception e -> Error ("reseed fetch: " ^ Printexc.to_string e)
            | _bytes -> (
              match Xlog.reseed t.log with
              | Ok () ->
                locked t (fun () -> t.err <- None);
                Ok ()
              | Error m -> Error ("reseed install: " ^ m))))

  (* --- lifecycle ---------------------------------------------------------- *)

  let run t =
    let retry () =
      (* sleep in small slices so stop stays prompt *)
      let slices = max 1 (t.cfg.retry_ms / 50) in
      let rec nap i =
        if i < slices && not (locked t (fun () -> t.stop_flag)) then begin
          Thread.delay 0.05;
          nap (i + 1)
        end
      in
      nap 0
    in
    while not (locked t (fun () -> t.stop_flag)) do
      match role t with
      | `Primary -> retry ()
      | `Follower -> (
        let target =
          locked t (fun () ->
              if t.leader <> "" then t.leader
              else Option.value t.cfg.follow ~default:"")
        in
        if target = "" then begin
          if t.cfg.auto_promote then try_elect t;
          retry ()
        end
        else
          let wants_reseed =
            locked t (fun () ->
                let w = t.reseed_req in
                t.reseed_req <- false;
                w)
          in
          let verdict =
            if wants_reseed then `Reseed "repair requested"
            else follow_once t target
          in
          match verdict with
          | `Stopped -> ()
          | `Redirect hint ->
            locked t (fun () -> t.leader <- hint);
            if hint = "" then retry ()
          | `Refused ->
            (* stale-epoch stream: forget this leader and rediscover *)
            locked t (fun () -> t.leader <- "");
            if t.cfg.auto_promote then try_elect t;
            retry ()
          | `Silent | `Dead ->
            if t.cfg.auto_promote then try_elect t;
            retry ()
          | `Reseed why -> (
            locked t (fun () ->
                t.err <- Some ("re-seeding from " ^ target ^ ": " ^ why));
            match reseed_from t target with
            | Ok () -> ()  (* loop: resubscribe from the snapshot cut *)
            | Error m ->
              locked t (fun () -> t.err <- Some m);
              retry ();
              retry ())
          | `Fatal msg ->
            locked t (fun () -> t.err <- Some msg);
            retry ();
            retry ())
    done

  let start t =
    locked t (fun () ->
        match t.thread with
        | Some _ -> ()
        | None ->
          t.stop_flag <- false;
          t.thread <- Some (Thread.create run t))

  let stop t =
    let th =
      locked t (fun () ->
          t.stop_flag <- true;
          (match t.sub_fd with
           | Some fd -> (
             try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
           | None -> ());
          let th = t.thread in
          t.thread <- None;
          th)
    in
    match th with None -> () | Some th -> ( try Thread.join th with _ -> ())
end
