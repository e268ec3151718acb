(** Write-ahead log for the durable ingestion subsystem.

    {1 File format}

    A WAL file is a fixed 8-byte magic ["xlogwal1"] followed by a flat
    run of records:

    {v
      offset  size  field
      0       4     payload length u32 LE  (1 .. max_record)
      4       8     checksum u64 LE — FNV-1a 64 of the payload bytes
      12      len   payload
    v}

    The payload's first byte is the operation:

    {v
      op 1  Insert:  u8 1 | i64 LE id | document
      op 2  Remove:  u8 2 | i64 LE id
    v}

    Documents serialise exactly like {!Xseq.save}'s record region: a
    pre-order walk of [u8 kind] (0 element, 1 value), [u32 LE] length +
    bytes for names/text, and a [u32 LE] child count for elements.

    {1 Defensive decoding}

    Like [Xserver.Protocol], the decoder never lets an exception escape:
    truncation anywhere (including mid-header), a lying length, a
    checksum mismatch, an unknown op, a hostile child count or a
    pathological nesting depth all yield [Error] — the basis of crash
    recovery's "replay until the first bad record, keep what came
    before" contract. *)

type op =
  | Insert of int * Xmlcore.Xml_tree.t  (** [id], document *)
  | Remove of int  (** [id] *)

val magic : string
(** ["xlogwal1"]. *)

val max_record : int
(** Upper bound on an encoded payload (matches the server frame cap). *)

val encode_op : op -> string
(** Payload bytes for one operation (no header). *)

val encode_record : op -> string
(** Full record: length + checksum header followed by the payload.
    @raise Invalid_argument if the payload exceeds {!max_record}. *)

val decode_op : string -> (op, string) result
(** Decodes one payload.  Total: every byte participates, trailing
    garbage is an error. *)

type scan = {
  ops : op list;  (** decoded records, in file order *)
  good_bytes : int;  (** file offset just past the last good record *)
  torn : string option;  (** diagnostic if the tail was unreadable *)
}

val scan_string : ?offset:int -> string -> (scan, string) result
(** Scans WAL bytes starting at [offset] (default just past the magic).
    A bad magic is [Error]; a torn or corrupt tail is {e not} — the scan
    stops there and reports it in [torn], because an interrupted final
    write is the expected crash shape.  Never raises. *)

val scan_file : ?offset:int -> string -> (scan, string) result
(** {!scan_string} over a file's contents.  Missing file is [Error]. *)

val scan_records : string -> (op list, string) result
(** Decodes a bare run of records — headers + payloads, {e no} magic —
    such as a replication batch.  Total: truncation, a checksum mismatch
    or trailing bytes are all [Error] (a batch that arrived over a
    checksummed stream must decode perfectly or be refused whole).
    Never raises. *)

(** {1 Positions and tailing}

    A replication cursor is a [(file_seq, byte_offset)] pair naming a
    point in the store's WAL {e file sequence} — [wal-000017.log] at
    byte 128 is [{ file = 17; off = 128 }].  Followers mirror the
    primary's files byte-for-byte at the same sequence numbers, so
    positions mean the same thing on every node and survive failover. *)

type position = { file : int;  (** WAL file sequence number *) off : int }

val start_position : position
(** File 0, just past the magic: where a fresh store's log begins. *)

val position_compare : position -> position -> int
(** Lexicographic: file first, then offset. *)

val position_to_string : position -> string
(** ["(17, 128)"] — for errors, stats and logs. *)

val file_name : int -> string
(** The name of WAL file [i] in a store directory (its layout is in
    xlog.mli). *)

val list_files : string -> (int * string) list
(** WAL files in a store directory as [(seq, path)], ascending.  Empty
    if the directory is missing or holds none. *)

type batch = {
  b_records : string;
      (** zero or more complete records, raw header+payload bytes —
          exactly what {!append_raw} replays on a follower *)
  b_count : int;  (** records in [b_records] *)
  b_next : position;  (** resume position just past them *)
}

type tail_error =
  | Position_pruned of { earliest : position }
      (** the requested file was pruned by compaction; the oldest
          retained log starts at [earliest] — the follower must re-seed
          from a checkpoint snapshot, no byte replay can reach it *)
  | Tail_error of string
      (** the position is beyond the end of the log, inside a record
          boundary, or the directory/file could not be read *)

val tail_error_to_string : tail_error -> string

val tail : dir:string -> ?max_bytes:int -> position -> (batch, tail_error) result
(** Reads committed records from [pos], at most [max_bytes] (default
    256 KiB) of them, validating every checksum — a torn or in-flight
    tail record is never shipped.  Resumable across rotations: when the
    current file is exhausted and a higher-sequence file exists, the
    batch's [b_next] advances to the next file's first record (skipping
    any torn garbage a dead file's tail may carry — those bytes were
    never acknowledged).  An empty batch with [b_next = pos] means
    "caught up, poll again".  A position older than the oldest retained
    file is {!Position_pruned}, {e not} an exception — WAL pruning must
    never crash the shipping path.  So is a position in a listed file
    that is gone ([ENOENT]) by the time it is read: a checkpoint pruned
    it between the directory listing and the read.  Never raises. *)

(** {1 Appending}

    Every physical read, write and fsync below (and in {!scan_file})
    goes through the {!Xfault.Io} shim, so fault-injection schedules
    reach the WAL.  [EINTR] and short writes are absorbed internally;
    everything else ([ENOSPC], [EIO], fsync failure, {!Xfault.Crashed})
    escapes to the caller — the store's degraded-state machinery. *)

type writer

val create : ?sync_every:int -> string -> writer
(** Opens [path] for appending, writing the magic if the file is new (or
    validating it otherwise — a foreign file raises [Invalid_argument]).
    [sync_every] batches [fsync]: [1] (the default) syncs after every
    record, [n > 1] after every [n]th, [<= 0] never — callers can still
    {!sync} explicitly. *)

val append : writer -> op -> unit
(** Appends one record and applies the [sync_every] policy. *)

val append_raw : writer -> ?records:int -> string -> unit
(** Appends pre-encoded record bytes verbatim — the follower side of
    WAL mirroring: a {!tail} batch's [b_records] lands on the replica
    at exactly the primary's offsets.  The caller vouches the bytes are
    whole records ({!scan_records} validates); [records] (default 1)
    feeds the [sync_every] accounting. *)

val sync : writer -> unit
(** Flushes buffered records and [fsync]s the file. *)

val offset : writer -> int
(** Current end-of-log offset (magic + records appended or recovered),
    i.e. the replay position a checkpoint should record. *)

val durable_offset : writer -> int
(** Offset up to which records have reached stable storage (the last
    successful {!sync}).  What a replication heartbeat may advertise:
    bytes past it can still be lost by a crash. *)

val close : writer -> unit
(** {!sync} then close the fd.  Idempotent. *)

val abort : writer -> unit
(** Closes the fd {e without} flushing or syncing, dropping any buffered
    records, and never raises.  For tearing down a writer whose disk has
    already failed (the store's degraded path) or whose process has
    "crashed" under fault injection — {!close} would re-attempt the
    write and re-raise.  Idempotent. *)
