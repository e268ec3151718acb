(** The xseq wire protocol: versioned, length-prefixed binary frames.

    Every message — request or response — is one frame:

    {v
      offset  size  field
      0       2     magic "xQ"
      2       1     protocol version (2)
      3       1     opcode (requests 0x00-0x7F, responses 0x80-0xFF)
      4       4     payload length, u32 LE, at most {!max_payload}
      8       len   payload (opcode-specific, little-endian throughout)
    v}

    Strings serialise as [u32 length + bytes].  Document ids — and the
    doc-count gauge — are [u64] since version 2: a sharded store tags
    the shard index into bits 52+ of every id, far beyond u32 (this is
    the version-1 → 2 change; counts, generations and timeouts remain
    u32).  Id lists serialise as [u32 count + count × u64].  Decoding
    is defensive end to end: every
    read is bounds-checked, every frame must be consumed exactly, and
    malformed input of any shape — bad magic, unknown version or opcode,
    a length field larger than the cap or than the data, truncation at
    any byte, trailing bytes — yields [Error], never an exception.  The
    server answers a [Bad_request]/[Frame_too_large] error frame (or
    closes) on such input; it never lets it reach the accept loop. *)

val magic : string
(** ["xQ"] — two bytes. *)

val version : int
(** Current protocol version (2 — version 1 carried u32 document ids,
    too narrow for shard-tagged ids). *)

val header_size : int
(** Bytes before the payload (8). *)

val max_payload : int
(** Hard cap on a frame payload (16 MiB).  Frames announcing more are
    rejected without allocating. *)

type error_code =
  | Bad_request  (** unparsable frame or XPath *)
  | Overloaded  (** admission control rejected the request *)
  | Timeout  (** the per-request deadline expired before execution *)
  | Server_error  (** unexpected failure while serving the request *)
  | Degraded
      (** the store's write path is out of service (disk fault); queries
          still work — retrying the write without operator action is
          useless until {!response.Health_status} clears *)
  | Unsupported
      (** well-formed frame, but an opcode this build does not dispatch
          — the connection stays open *)
  | Not_primary
      (** a mutation (or bounded-staleness read it cannot satisfy)
          reached a replication follower: the message carries the leader
          endpoint hint ("" if unknown) — chase it, don't retry here *)
  | Pruned
      (** a [Subscribe] position older than the oldest retained WAL
          file: byte replay cannot reach it, the follower must re-seed
          from a snapshot.  The message names the earliest position. *)

val error_code_to_string : error_code -> string

type request =
  | Ping
  | Query of { xpath : string; timeout_ms : int }
      (** [timeout_ms = 0] means no deadline. *)
  | Query_batch of { xpaths : string array; timeout_ms : int }
  | Stats  (** metrics registry as JSON *)
  | Reload of string option
      (** hot-swap the served index: [Some path] loads a new snapshot,
          [None] refreshes the server's configured source *)
  | Insert of { xml : string }
      (** live ingestion: parse one XML document and insert it into the
          served [Xlog] store (an error on frozen backends) *)
  | Delete of { id : int }  (** tombstone a live document *)
  | Flush  (** seal the memtable and fsync the WAL *)
  | Health
      (** liveness + degradation probe: always answered, even (and
          especially) while the write path is down *)
  | Subscribe of { epoch : int; pos : Xlog.Wal.position }
      (** replication: stream committed WAL records from [pos] (the
          follower's own log end).  [epoch] is the highest primary
          epoch the subscriber has seen — a primary receiving a higher
          one knows it was deposed and steps down (fencing).  The
          connection leaves the request/response model: the server
          pushes {!response.Wal_batch} / {!response.Repl_heartbeat}
          frames indefinitely, and the only frame the subscriber may
          send is {!Wal_ack}. *)
  | Wal_ack of { pos : Xlog.Wal.position }
      (** one-way (no response): the subscriber durably applied the
          stream up to [pos] — what semi-synchronous mutation
          acknowledgement waits for *)
  | Promote
      (** make this follower the primary: bump the epoch, flip the role,
          start accepting mutations.  Idempotent on a primary. *)
  | Repl_status  (** replication role/epoch/position probe *)
  | Query_bounded of { xpath : string; timeout_ms : int; min_gen : int }
      (** bounded-staleness read: answer only if this node has applied
          at least [min_gen] document ids (a follower behind that — or
          asked for data it may not have yet — answers
          {!error_code.Not_primary} with the leader hint so the client
          can redirect) *)
  | Fetch_snapshot of { token : string; cursor : int }
      (** snapshot transfer: stream the serving store's latest durable
          snapshot (checkpoint + base files + retained WAL) from byte
          [cursor] of the transfer stream.  The server pushes
          {!response.Snapshot_chunk} frames until the stream ends, under
          the same write-side backpressure as every other push.  [token]
          identifies the snapshot being resumed ([""] on a first fetch);
          a server whose current snapshot differs answers with its own
          token and a chunk at offset 0 — the client must discard
          partial state and restart *)
  | Unknown of { op : int }
      (** a {e well-formed} frame whose request opcode this build does
          not know.  Decoding yields this rather than [Error] so the
          server can answer {!error_code.Unsupported} and keep the
          connection — forward compatibility with newer clients.  The
          payload is opaque and not validated.  [encode_request] on it
          emits an empty payload (test use). *)

type response =
  | Pong
  | Result of { generation : int; ids : int list }
  | Batch_result of { generation : int; ids : int list array }
  | Stats_json of string
  | Reloaded of { generation : int }
  | Error of { code : error_code; message : string }
  | Inserted of { id : int }  (** the stable id the document got *)
  | Deleted of { existed : bool }
      (** [false]: the id was never allocated or already tombstoned *)
  | Flushed of { generation : int }
      (** structure generation after the seal *)
  | Health_status of {
      degraded : bool;
      reason : string;  (** "" when healthy; the failing op + errno else *)
      generation : int;
      doc_count : int;
    }  (** answer to {!request.Health} *)
  | Wal_batch of {
      epoch : int;  (** the sending primary's epoch — a follower refuses
                        batches from a lower epoch than it has seen *)
      from : Xlog.Wal.position;  (** where these records start *)
      next : Xlog.Wal.position;  (** resume position just past them; a
                                     later file than [from] mirrors a
                                     rotation *)
      count : int;  (** records in [records] *)
      records : string;  (** raw WAL record bytes, checksums included *)
    }  (** one {!Xlog.Wal.tail} batch pushed to a subscriber *)
  | Repl_heartbeat of {
      epoch : int;
      durable : Xlog.Wal.position;  (** primary's fsynced log end *)
      next_id : int;  (** primary's id watermark — the generation a
                          bounded-staleness client pins reads to *)
    }  (** pushed on an idle subscription so followers can tell a quiet
          primary from a dead one *)
  | Promoted of { epoch : int }  (** answer to {!request.Promote} *)
  | Repl_state of {
      role : [ `Primary | `Follower ];
      epoch : int;
      durable : Xlog.Wal.position;
      next_id : int;
      leader_hint : string;  (** endpoint of the known primary, "" if
                                 this node is it or none is known *)
      lag_records : int;
          (** WAL records this node trails its primary's durable
              position by (0 on a primary) *)
      lag_bytes : int;  (** same lag in bytes *)
    }  (** answer to {!request.Repl_status} *)
  | Snapshot_chunk of {
      token : string;
          (** identity of the snapshot this chunk belongs to; changes
              when the primary checkpoints mid-transfer — a client
              holding a different token must restart from offset 0 *)
      total : int;  (** total bytes in the transfer stream *)
      offset : int;  (** where [data] sits in the stream *)
      last : bool;  (** final chunk of the stream *)
      crc : int64;  (** FNV-1a 64 of [data] — transport-level check;
                        the installed files re-verify their own
                        checksums end to end *)
      data : string;
    }  (** one slice of a snapshot transfer ({!request.Fetch_snapshot}) *)

val error : error_code -> ('a, unit, string, response) format4 -> 'a
(** [error code fmt ...] is the [Error] response with that code and the
    formatted message. *)

(** {1 Codec} *)

val encode_request : request -> string
(** The complete frame, header included. *)

val encode_response : response -> string

val encode_response_iov : response -> string list
(** The same frame as {!encode_response}, but as an iovec-style buffer
    list — header and payload as separate slices, no concatenation copy
    — for vectored writes ({!Xutil.Evloop.writev}).  Invariant:
    [String.concat "" (encode_response_iov r) = encode_response r]. *)

val decode_request : string -> (request, string) result
(** Decodes one complete frame.  [Error msg] describes the first defect
    (bad magic, bad version, response opcode in a request, length lies,
    truncation, trailing bytes, …). *)

val decode_response : string -> (response, string) result

(** {1 Framed I/O}

    Blocking helpers over [Unix] file descriptors, used by both the
    server's connection loops and the client library.  Socket reads and
    writes go through the {!Xfault.Io} shim ([Recv]/[Send] classes), so
    fault schedules can stall, shorten or reset protocol traffic;
    [EINTR] and short counts are absorbed here. *)

type read_error =
  | Eof  (** clean end of stream before any byte of a frame *)
  | Truncated  (** end of stream inside a frame *)
  | Bad_header of string  (** bad magic / version / oversized length *)

val read_frame : Unix.file_descr -> (string, read_error) result
(** Reads exactly one frame (header + payload).  The header is validated
    {e before} the payload is allocated, so a hostile length field never
    costs more than {!header_size} bytes of reading. *)

val write_frame : Unix.file_descr -> string -> unit
(** Writes the whole string, looping over partial writes.
    @raise Unix.Unix_error as the underlying writes do. *)

(** {1 Incremental decoding}

    The event-driven server (and any pipelining peer) cannot block for
    a whole frame: bytes arrive whenever the socket has them, frames
    end wherever the length prefix says.  {!Decoder} is the resumable
    form of {!read_frame}: feed it whatever slice just arrived, then
    pull zero or more complete frames out.  Defensive exactly like the
    one-shot path — the header is validated the moment its 8 bytes are
    buffered (a hostile length field never costs a payload allocation),
    and no input of any shape raises. *)

module Decoder : sig
  type item =
    | Need_more  (** no complete frame buffered; feed more bytes *)
    | Frame of string
        (** one complete frame, header included — exactly what
            {!decode_request} / {!decode_response} consume and what the
            blocking {!read_frame} would have returned *)
    | Corrupt of string
        (** bad magic, unknown version, or a length field beyond
            {!max_payload}: the stream cannot be resynchronised.
            Sticky — every later {!next} repeats it. *)

  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t buf off len] appends the slice.  Bytes fed after the
      decoder turned [Corrupt] are discarded.
      @raise Invalid_argument on an out-of-bounds slice (caller bug,
      not wire input). *)

  val feed_string : t -> string -> int -> int -> unit

  val next : t -> item
  (** Extract the next complete frame.  Call repeatedly until
      [Need_more] — several frames fed in one slice (a pipelining
      client) come out one by one, byte-for-byte in arrival order. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed as frames (partial frame tail). *)
end
