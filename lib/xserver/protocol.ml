(* Wire codec.  Encoding goes through Buffer; decoding goes through a
   bounds-checked cursor that raises a private [Malformed] exception,
   converted to [Error] at the two public entry points — so no malformed
   input, whatever its shape, can raise out of the codec. *)

let magic = "xQ"

(* Version 2: document ids (and the doc-count gauge) widened from u32 to
   u64 — a sharded store tags the shard index into bits 52+ of every id. *)
let version = 2
let header_size = 8
let max_payload = 16 * 1024 * 1024

type error_code =
  | Bad_request
  | Overloaded
  | Timeout
  | Server_error
  | Degraded
  | Unsupported
  | Not_primary
  | Pruned

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Server_error -> "server_error"
  | Degraded -> "degraded"
  | Unsupported -> "unsupported"
  | Not_primary -> "not_primary"
  | Pruned -> "pruned"

type request =
  | Ping
  | Query of { xpath : string; timeout_ms : int }
  | Query_batch of { xpaths : string array; timeout_ms : int }
  | Stats
  | Reload of string option
  | Insert of { xml : string }
  | Delete of { id : int }
  | Flush
  | Health
  | Subscribe of { epoch : int; pos : Xlog.Wal.position }
  | Wal_ack of { pos : Xlog.Wal.position }
  | Promote
  | Repl_status
  | Query_bounded of { xpath : string; timeout_ms : int; min_gen : int }
  | Fetch_snapshot of { token : string; cursor : int }
  | Unknown of { op : int }

type response =
  | Pong
  | Result of { generation : int; ids : int list }
  | Batch_result of { generation : int; ids : int list array }
  | Stats_json of string
  | Reloaded of { generation : int }
  | Error of { code : error_code; message : string }
  | Inserted of { id : int }
  | Deleted of { existed : bool }
  | Flushed of { generation : int }
  | Health_status of {
      degraded : bool;
      reason : string;
      generation : int;
      doc_count : int;
    }
  | Wal_batch of {
      epoch : int;
      from : Xlog.Wal.position;
      next : Xlog.Wal.position;
      count : int;
      records : string;
    }
  | Repl_heartbeat of { epoch : int; durable : Xlog.Wal.position; next_id : int }
  | Promoted of { epoch : int }
  | Repl_state of {
      role : [ `Primary | `Follower ];
      epoch : int;
      durable : Xlog.Wal.position;
      next_id : int;
      leader_hint : string;
      lag_records : int;
      lag_bytes : int;
    }
  | Snapshot_chunk of {
      token : string;
      total : int;
      offset : int;
      last : bool;
      crc : int64;
      data : string;
    }

let error code fmt =
  Printf.ksprintf (fun message -> Error { code; message }) fmt

(* --- opcodes -------------------------------------------------------------- *)

let op_ping = 0x00
let op_query = 0x01
let op_query_batch = 0x02
let op_stats = 0x03
let op_reload = 0x04
let op_insert = 0x05
let op_delete = 0x06
let op_flush = 0x07
let op_health = 0x08
let op_subscribe = 0x09
let op_wal_ack = 0x0a
let op_promote = 0x0b
let op_repl_status = 0x0c
let op_query_bounded = 0x0d
let op_fetch_snapshot = 0x0e
let op_pong = 0x80
let op_result = 0x81
let op_batch_result = 0x82
let op_stats_json = 0x83
let op_reloaded = 0x84
let op_error = 0x85
let op_inserted = 0x86
let op_deleted = 0x87
let op_flushed = 0x88
let op_health_status = 0x89
let op_wal_batch = 0x8a
let op_repl_heartbeat = 0x8b
let op_promoted = 0x8c
let op_repl_state = 0x8d
let op_snapshot_chunk = 0x8e

let code_to_int = function
  | Bad_request -> 0
  | Overloaded -> 1
  | Timeout -> 2
  | Server_error -> 3
  | Degraded -> 4
  | Unsupported -> 5
  | Not_primary -> 6
  | Pruned -> 7

(* --- encoding ------------------------------------------------------------- *)

let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_u64 b v = Buffer.add_int64_le b (Int64.of_int v)

(* Raw 64-bit value — checksums use every bit, including the sign. *)
let add_i64 b (v : int64) = Buffer.add_int64_le b v

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_ids b ids =
  add_u32 b (List.length ids);
  List.iter (fun id -> add_u64 b id) ids

(* WAL positions travel as u32 file sequence + u64 byte offset. *)
let add_pos b (p : Xlog.Wal.position) =
  add_u32 b p.Xlog.Wal.file;
  add_u64 b p.Xlog.Wal.off

(* Iovec-style framing: header and payload stay separate buffers so a
   vectored writer can hand both slices to one writev(2) without the
   concatenation copy.  [frame] is the one-string convenience over it. *)
let frame_iov op payload =
  let n = String.length payload in
  if n > max_payload then
    invalid_arg
      (Printf.sprintf "Protocol: payload of %d bytes exceeds the %d cap" n
         max_payload);
  let h = Bytes.create header_size in
  Bytes.blit_string magic 0 h 0 2;
  Bytes.set_uint8 h 2 version;
  Bytes.set_uint8 h 3 op;
  Bytes.set_int32_le h 4 (Int32.of_int n);
  if n = 0 then [ Bytes.unsafe_to_string h ]
  else [ Bytes.unsafe_to_string h; payload ]

let frame op payload = String.concat "" (frame_iov op payload)

let payload_of f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let encode_request = function
  | Ping -> frame op_ping ""
  | Query { xpath; timeout_ms } ->
    frame op_query
      (payload_of (fun b ->
           add_u32 b timeout_ms;
           add_str b xpath))
  | Query_batch { xpaths; timeout_ms } ->
    frame op_query_batch
      (payload_of (fun b ->
           add_u32 b timeout_ms;
           add_u32 b (Array.length xpaths);
           Array.iter (add_str b) xpaths))
  | Stats -> frame op_stats ""
  | Reload path ->
    frame op_reload
      (payload_of (fun b ->
           match path with
           | None -> Buffer.add_uint8 b 0
           | Some p ->
             Buffer.add_uint8 b 1;
             add_str b p))
  | Insert { xml } -> frame op_insert (payload_of (fun b -> add_str b xml))
  | Delete { id } -> frame op_delete (payload_of (fun b -> add_u64 b id))
  | Flush -> frame op_flush ""
  | Health -> frame op_health ""
  | Subscribe { epoch; pos } ->
    frame op_subscribe
      (payload_of (fun b ->
           add_u64 b epoch;
           add_pos b pos))
  | Wal_ack { pos } -> frame op_wal_ack (payload_of (fun b -> add_pos b pos))
  | Promote -> frame op_promote ""
  | Repl_status -> frame op_repl_status ""
  | Query_bounded { xpath; timeout_ms; min_gen } ->
    frame op_query_bounded
      (payload_of (fun b ->
           add_u32 b timeout_ms;
           add_u64 b min_gen;
           add_str b xpath))
  | Fetch_snapshot { token; cursor } ->
    frame op_fetch_snapshot
      (payload_of (fun b ->
           add_u64 b cursor;
           add_str b token))
  | Unknown { op } ->
    (* Mostly for tests probing forward-compatibility: a well-formed
       frame carrying an opcode this build does not dispatch. *)
    if op < 0 || op > 0x7f then
      invalid_arg (Printf.sprintf "Protocol: request opcode 0x%x out of range" op);
    frame op ""

let response_parts = function
  | Pong -> (op_pong, "")
  | Result { generation; ids } ->
    ( op_result,
      payload_of (fun b ->
          add_u32 b generation;
          add_ids b ids) )
  | Batch_result { generation; ids } ->
    ( op_batch_result,
      payload_of (fun b ->
          add_u32 b generation;
          add_u32 b (Array.length ids);
          Array.iter (add_ids b) ids) )
  | Stats_json s -> (op_stats_json, payload_of (fun b -> add_str b s))
  | Reloaded { generation } ->
    (op_reloaded, payload_of (fun b -> add_u32 b generation))
  | Error { code; message } ->
    ( op_error,
      payload_of (fun b ->
          Buffer.add_uint8 b (code_to_int code);
          add_str b message) )
  | Inserted { id } -> (op_inserted, payload_of (fun b -> add_u64 b id))
  | Deleted { existed } ->
    (op_deleted, payload_of (fun b -> Buffer.add_uint8 b (if existed then 1 else 0)))
  | Flushed { generation } ->
    (op_flushed, payload_of (fun b -> add_u32 b generation))
  | Health_status { degraded; reason; generation; doc_count } ->
    ( op_health_status,
      payload_of (fun b ->
          Buffer.add_uint8 b (if degraded then 1 else 0);
          add_str b reason;
          add_u32 b generation;
          add_u64 b doc_count) )
  | Wal_batch { epoch; from; next; count; records } ->
    ( op_wal_batch,
      payload_of (fun b ->
          add_u64 b epoch;
          add_pos b from;
          add_pos b next;
          add_u32 b count;
          add_str b records) )
  | Repl_heartbeat { epoch; durable; next_id } ->
    ( op_repl_heartbeat,
      payload_of (fun b ->
          add_u64 b epoch;
          add_pos b durable;
          add_u64 b next_id) )
  | Promoted { epoch } -> (op_promoted, payload_of (fun b -> add_u64 b epoch))
  | Repl_state { role; epoch; durable; next_id; leader_hint; lag_records; lag_bytes } ->
    ( op_repl_state,
      payload_of (fun b ->
          Buffer.add_uint8 b (match role with `Primary -> 0 | `Follower -> 1);
          add_u64 b epoch;
          add_pos b durable;
          add_u64 b next_id;
          add_str b leader_hint;
          add_u64 b lag_records;
          add_u64 b lag_bytes) )
  | Snapshot_chunk { token; total; offset; last; crc; data } ->
    ( op_snapshot_chunk,
      payload_of (fun b ->
          add_str b token;
          add_u64 b total;
          add_u64 b offset;
          Buffer.add_uint8 b (if last then 1 else 0);
          add_i64 b crc;
          add_str b data) )

let encode_response r =
  let op, payload = response_parts r in
  frame op payload

let encode_response_iov r =
  let op, payload = response_parts r in
  frame_iov op payload

(* --- decoding ------------------------------------------------------------- *)

exception Malformed of string

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

type cursor = { s : string; mutable pos : int; limit : int }

let u8 c =
  if c.pos >= c.limit then bad "truncated frame (u8 at %d)" c.pos;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let u32 c =
  if c.pos + 4 > c.limit then bad "truncated frame (u32 at %d)" c.pos;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  (* Int32 sign bit maps to negative OCaml ints: never a valid length,
     count, id, generation or timeout in this protocol. *)
  if v < 0 then bad "negative field %d at %d" v (c.pos - 4);
  v

let u64 c =
  if c.pos + 8 > c.limit then bad "truncated frame (u64 at %d)" c.pos;
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  (* The Int64 sign bit (and bit 62, lost to OCaml's tagged int) can
     only come from a corrupt or hostile frame: ids are non-negative
     and fit 62 bits by construction. *)
  if v < 0 then bad "negative field %d at %d" v (c.pos - 8);
  v

let i64 c =
  if c.pos + 8 > c.limit then bad "truncated frame (i64 at %d)" c.pos;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let str c =
  let n = u32 c in
  if n > c.limit - c.pos then
    bad "string of %d bytes overruns frame at %d" n c.pos;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let ids c =
  let n = u32 c in
  (* Each id costs 8 bytes: reject lying counts before allocating. *)
  if n > (c.limit - c.pos) / 8 then bad "id count %d overruns frame" n;
  List.init n (fun _ -> u64 c)

let pos_field c =
  let file = u32 c in
  let off = u64 c in
  { Xlog.Wal.file; off }

let check_header ~dir s =
  let len = String.length s in
  if len < header_size then bad "frame shorter than its %d-byte header" header_size;
  if String.sub s 0 2 <> magic then bad "bad magic %S" (String.sub s 0 2);
  let v = Char.code s.[2] in
  if v <> version then bad "unsupported protocol version %d" v;
  let op = Char.code s.[3] in
  (match dir with
   | `Request -> if op >= 0x80 then bad "response opcode 0x%02x in a request" op
   | `Response -> if op < 0x80 then bad "request opcode 0x%02x in a response" op);
  let n = Int32.to_int (String.get_int32_le s 4) in
  if n < 0 || n > max_payload then bad "payload length %d exceeds the cap" n;
  if header_size + n <> len then
    bad "payload length field says %d bytes, frame carries %d" n
      (len - header_size);
  (op, { s; pos = header_size; limit = len })

let finish c v =
  if c.pos <> c.limit then
    bad "%d trailing bytes after a well-formed payload" (c.limit - c.pos);
  v

let decode_request s =
  match
    let op, c = check_header ~dir:`Request s in
    if op = op_ping then finish c Ping
    else if op = op_query then begin
      let timeout_ms = u32 c in
      let xpath = str c in
      finish c (Query { xpath; timeout_ms })
    end
    else if op = op_query_batch then begin
      let timeout_ms = u32 c in
      let n = u32 c in
      (* Each query costs at least its 4-byte length prefix. *)
      if n > (c.limit - c.pos) / 4 then bad "query count %d overruns frame" n;
      let xpaths = Array.init n (fun _ -> str c) in
      finish c (Query_batch { xpaths; timeout_ms })
    end
    else if op = op_stats then finish c Stats
    else if op = op_reload then begin
      match u8 c with
      | 0 -> finish c (Reload None)
      | 1 -> finish c (Reload (Some (str c)))
      | t -> bad "bad option tag %d in Reload" t
    end
    else if op = op_insert then finish c (Insert { xml = str c })
    else if op = op_delete then finish c (Delete { id = u64 c })
    else if op = op_flush then finish c Flush
    else if op = op_health then finish c Health
    else if op = op_subscribe then begin
      let epoch = u64 c in
      let pos = pos_field c in
      finish c (Subscribe { epoch; pos })
    end
    else if op = op_wal_ack then finish c (Wal_ack { pos = pos_field c })
    else if op = op_promote then finish c Promote
    else if op = op_repl_status then finish c Repl_status
    else if op = op_query_bounded then begin
      let timeout_ms = u32 c in
      let min_gen = u64 c in
      let xpath = str c in
      finish c (Query_bounded { xpath; timeout_ms; min_gen })
    end
    else if op = op_fetch_snapshot then begin
      let cursor = u64 c in
      let token = str c in
      finish c (Fetch_snapshot { token; cursor })
    end
    else
      (* Forward compatibility: a well-formed frame with a request
         opcode this build does not know is NOT malformed — the server
         answers [Unsupported] and keeps the connection, so newer
         clients degrade per-operation instead of losing the session.
         The payload is opaque to us and deliberately not validated. *)
      Unknown { op }
  with
  | v -> Ok v
  | exception Malformed m -> Error m

let decode_response s =
  match
    let op, c = check_header ~dir:`Response s in
    if op = op_pong then finish c Pong
    else if op = op_result then begin
      let generation = u32 c in
      let l = ids c in
      finish c (Result { generation; ids = l })
    end
    else if op = op_batch_result then begin
      let generation = u32 c in
      let n = u32 c in
      if n > (c.limit - c.pos) / 4 then bad "result count %d overruns frame" n;
      let arr = Array.init n (fun _ -> ids c) in
      finish c (Batch_result { generation; ids = arr })
    end
    else if op = op_stats_json then finish c (Stats_json (str c))
    else if op = op_reloaded then begin
      let generation = u32 c in
      finish c (Reloaded { generation })
    end
    else if op = op_error then begin
      let code =
        match u8 c with
        | 0 -> Bad_request
        | 1 -> Overloaded
        | 2 -> Timeout
        | 3 -> Server_error
        | 4 -> Degraded
        | 5 -> Unsupported
        | 6 -> Not_primary
        | 7 -> Pruned
        | k -> bad "unknown error code %d" k
      in
      let message = str c in
      finish c (Error { code; message })
    end
    else if op = op_inserted then finish c (Inserted { id = u64 c })
    else if op = op_deleted then begin
      match u8 c with
      | 0 -> finish c (Deleted { existed = false })
      | 1 -> finish c (Deleted { existed = true })
      | t -> bad "bad boolean tag %d in Deleted" t
    end
    else if op = op_flushed then begin
      let generation = u32 c in
      finish c (Flushed { generation })
    end
    else if op = op_health_status then begin
      let degraded =
        match u8 c with
        | 0 -> false
        | 1 -> true
        | t -> bad "bad boolean tag %d in Health_status" t
      in
      let reason = str c in
      let generation = u32 c in
      let doc_count = u64 c in
      finish c (Health_status { degraded; reason; generation; doc_count })
    end
    else if op = op_wal_batch then begin
      let epoch = u64 c in
      let from = pos_field c in
      let next = pos_field c in
      let count = u32 c in
      let records = str c in
      (* A batch's records are opaque here (the follower's store
         re-validates every checksum before applying), but the count
         must at least be plausible: each record costs 13+ bytes. *)
      if count > String.length records / 13 then
        bad "record count %d overruns the batch" count;
      finish c (Wal_batch { epoch; from; next; count; records })
    end
    else if op = op_repl_heartbeat then begin
      let epoch = u64 c in
      let durable = pos_field c in
      let next_id = u64 c in
      finish c (Repl_heartbeat { epoch; durable; next_id })
    end
    else if op = op_promoted then finish c (Promoted { epoch = u64 c })
    else if op = op_repl_state then begin
      let role =
        match u8 c with
        | 0 -> `Primary
        | 1 -> `Follower
        | k -> bad "unknown role tag %d in Repl_state" k
      in
      let epoch = u64 c in
      let durable = pos_field c in
      let next_id = u64 c in
      let leader_hint = str c in
      let lag_records = u64 c in
      let lag_bytes = u64 c in
      finish c
        (Repl_state
           { role; epoch; durable; next_id; leader_hint; lag_records; lag_bytes })
    end
    else if op = op_snapshot_chunk then begin
      let token = str c in
      let total = u64 c in
      let offset = u64 c in
      let last =
        match u8 c with
        | 0 -> false
        | 1 -> true
        | t -> bad "bad boolean tag %d in Snapshot_chunk" t
      in
      let crc = i64 c in
      let data = str c in
      if offset + String.length data > total then
        bad "chunk at %d + %d bytes overruns the announced %d-byte stream"
          offset (String.length data) total;
      finish c (Snapshot_chunk { token; total; offset; last; crc; data })
    end
    else bad "unknown response opcode 0x%02x" op
  with
  | v -> Ok v
  | exception Malformed m -> Error m

(* --- framed I/O ----------------------------------------------------------- *)

type read_error = Eof | Truncated | Bad_header of string

(* Reads exactly [n] bytes, tolerating short reads and EINTR.  [`Eof k]
   reports how many bytes arrived before the stream ended. *)
let really_read fd buf off n =
  let rec go off remaining =
    if remaining = 0 then `Ok
    else
      match Xfault.Io.recv fd buf off remaining with
      | 0 -> `Eof (n - remaining)
      | k -> go (off + k) (remaining - k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off remaining
  in
  go off n

let read_frame fd =
  let header = Bytes.create header_size in
  match really_read fd header 0 header_size with
  | `Eof 0 -> Result.Error Eof
  | `Eof _ -> Result.Error Truncated
  | `Ok ->
    let h = Bytes.to_string header in
    if String.sub h 0 2 <> magic then
      Result.Error (Bad_header (Printf.sprintf "bad magic %S" (String.sub h 0 2)))
    else begin
      let v = Char.code h.[2] in
      if v <> version then
        Result.Error (Bad_header (Printf.sprintf "unsupported version %d" v))
      else begin
        let n = Int32.to_int (String.get_int32_le h 4) in
        if n < 0 || n > max_payload then
          Result.Error
            (Bad_header (Printf.sprintf "payload length %d exceeds the cap" n))
        else begin
          let payload = Bytes.create n in
          match really_read fd payload 0 n with
          | `Eof _ -> Result.Error Truncated
          | `Ok -> Result.Ok (h ^ Bytes.to_string payload)
        end
      end
    end

let write_frame fd s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      match Xfault.Io.send_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0

(* --- incremental decoding -------------------------------------------------- *)

module Decoder = struct
  type item = Need_more | Frame of string | Corrupt of string

  (* A compacting byte window: live data sits in [buf.[head, tail)].
     [feed] appends; [next] consumes whole frames from the front.  The
     header is validated the moment its 8 bytes are in — a hostile
     length field is rejected before one payload byte is read or
     buffered, exactly like the blocking [read_frame].  Corruption is
     sticky: a framing stream cannot be resynchronised, so after one
     [Corrupt] every later [next] repeats it. *)
  type t = {
    mutable buf : Bytes.t;
    mutable head : int;
    mutable tail : int;
    mutable dead : string option;
  }

  let create () =
    { buf = Bytes.create 4096; head = 0; tail = 0; dead = None }

  let buffered t = t.tail - t.head

  let ensure_room t n =
    let live = buffered t in
    if Bytes.length t.buf - t.tail < n then
      if Bytes.length t.buf - live >= n then begin
        (* Compact in place: enough total room, just badly placed. *)
        Bytes.blit t.buf t.head t.buf 0 live;
        t.head <- 0;
        t.tail <- live
      end
      else begin
        let cap = ref (max 4096 (2 * Bytes.length t.buf)) in
        while !cap - live < n do
          cap := !cap * 2
        done;
        let fresh = Bytes.create !cap in
        Bytes.blit t.buf t.head fresh 0 live;
        t.buf <- fresh;
        t.head <- 0;
        t.tail <- live
      end

  let feed t src off len =
    if off < 0 || len < 0 || off + len > Bytes.length src then
      invalid_arg "Decoder.feed: slice out of bounds";
    if t.dead = None && len > 0 then begin
      ensure_room t len;
      Bytes.blit src off t.buf t.tail len;
      t.tail <- t.tail + len
    end

  let feed_string t src off len =
    feed t (Bytes.unsafe_of_string src) off len

  let fail t fmt =
    Printf.ksprintf
      (fun m ->
        t.dead <- Some m;
        (* Poisoned: drop the window so a huge buffered payload is not
           pinned behind a dead connection. *)
        t.buf <- Bytes.create 0;
        t.head <- 0;
        t.tail <- 0;
        Corrupt m)
      fmt

  let next t =
    match t.dead with
    | Some m -> Corrupt m
    | None ->
      if buffered t < header_size then Need_more
      else begin
        let at k = Bytes.get t.buf (t.head + k) in
        if not (at 0 = magic.[0] && at 1 = magic.[1]) then
          fail t "bad magic %S" (Printf.sprintf "%c%c" (at 0) (at 1))
        else if Char.code (at 2) <> version then
          fail t "unsupported version %d" (Char.code (at 2))
        else begin
          let n = Int32.to_int (Bytes.get_int32_le t.buf (t.head + 4)) in
          if n < 0 || n > max_payload then
            fail t "payload length %d exceeds the cap" n
          else if buffered t < header_size + n then Need_more
          else begin
            let s = Bytes.sub_string t.buf t.head (header_size + n) in
            t.head <- t.head + header_size + n;
            if t.head = t.tail then begin
              t.head <- 0;
              t.tail <- 0
            end;
            Frame s
          end
        end
      end
end
