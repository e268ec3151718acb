(** Durable ingestion: an LSM-shaped write path under {!Xseq}.

    A store lives in a directory:

    {v
      wal-NNNNNN.log           write-ahead log file N (see {!Wal}); the
                               highest is current, older ones await the
                               next checkpoint
      base-NNNNNN.xseq         xseqcol2 snapshot of the compacted base,
                               cut by rotating to WAL file N
      base-NNNNNN-CCCCCC.xseq  the same, cut mid-file in WAL file N
                               without rotating (replica compaction C)
      checkpoint               commit record: base name + replay point
      checkpoint.tmp           a checkpoint being written
      xfer.tmp/                snapshot transfer being received
      xfer.ready/              received transfer committed for install,
                               with a MANIFEST naming the staged files
    v}

    Every [insert]/[remove] appends a WAL record before becoming
    visible; [sync_every] batches the [fsync]s.  Pending inserts
    accumulate in a memtable until [memtable_limit], then are {e sealed}
    into a real (small) {!Xseq.t} delta segment — queries never scan
    more than one memtable's worth of unindexed documents.  Deletes are
    tombstones: ids are stable forever and never reused.

    Queries read one immutable {e view} (base + delta segments +
    memtable + tombstones) obtained with a single atomic load, so they
    never lock and never observe a half-applied mutation.  Because ids
    are allocated monotonically and segments seal in order, per-segment
    sorted answers concatenate into a globally sorted answer — no merge.

    {e Compaction} is a plan plus one commit.  The plan maps the frozen
    view to its live documents; the commit rebuilds them off-thread on
    the shared domain pool, persists the result as a columnar snapshot,
    commits a checkpoint (tmp + fsync + rename), atomically installs
    the new base and deletes the WAL files the snapshot absorbed —
    concurrent queries keep answering against the old view until the
    swap, and the structure stamp change invalidates cached plans
    through the same generation check {!Xseq.run_prepared} performs for
    the server's plan cache.

    {e Recovery} ([open_] on an existing directory) loads the
    checkpoint's snapshot and replays the WAL suffix, truncating a torn
    tail with a diagnostic instead of failing — the contract the
    kill-at-random-point tests exercise. *)

module Pattern = Xquery.Pattern

module Wal = Wal
(** The write-ahead-log codec and appender (re-exported so tests and
    tools can scan log files without going through a store). *)

type t

type recovery = {
  replayed : int;  (** WAL records applied during open *)
  recovered_pending : int;  (** documents restored into the memtable *)
  torn : (string * string) list;
      (** (wal file, diagnostic) for every truncated torn tail *)
}

exception Degraded of string
(** The write path is out of service: a WAL append/sync or a checkpoint
    hit a disk fault ([ENOSPC], [EIO], …).  The store stays up read-only
    — queries keep answering against the installed view — and every
    mutation ({!insert}, {!remove}, {!flush}, {!sync}, {!compact})
    raises this until {!try_recover} succeeds.  The payload names the
    failing operation and errno. *)

val open_ :
  ?sync_every:int ->
  ?memtable_limit:int ->
  ?max_segments:int ->
  ?domains:int ->
  ?pool:Xutil.Domain_pool.t ->
  ?config:Xseq.config ->
  ?probe_interval:float ->
  string ->
  t
(** Opens (creating if needed) the store directory and recovers its
    contents.  [sync_every] (default 1) is the WAL fsync batch — see
    {!Wal.create}; acknowledged writes inside an unsynced batch can be
    lost by a crash, exactly the group-commit trade-off.
    [memtable_limit] (default 256) bounds the unindexed memtable;
    [max_segments] (default 8) triggers background compaction once
    enough deltas pile up.  [domains]/[pool] parallelise every
    {!Xseq.build} the store performs; [config.keep_documents] is forced
    on (compaction rebuilds from the kept records).  [probe_interval]
    (default 1s) rate-limits the automatic recovery probe a degraded
    store runs before each mutation attempt.
    @raise Invalid_argument on a corrupt checkpoint or base snapshot,
    naming the failure — a torn WAL tail is recovered, not an error. *)

val recovery : t -> recovery
(** What {!open_} found. *)

val insert : t -> Xmlcore.Xml_tree.t -> int
(** Appends to the WAL, then makes the document visible.  Returns its
    id; ids are dense, monotone and stable forever.
    @raise Degraded if the write path is out of service — the document
    is {e not} inserted and its id is not consumed. *)

val remove : t -> int -> bool
(** Tombstones a live document.  [false] if the id was never allocated
    or is already removed (nothing is logged in that case).
    @raise Degraded if the write path is out of service. *)

val flush : t -> unit
(** Seals the memtable into a delta segment (if non-empty) and fsyncs
    the WAL. *)

val seed : t -> Xmlcore.Xml_tree.t array -> int array
(** Bulk-loads an empty store: the documents get ids [0..n-1] from one
    {!Xseq.build}, saved as the base snapshot, instead of [n] inserts,
    their seals and the compactions that fold them together.  The WAL
    rotates first, so the log starts after the seed and holds none of
    it; on return the base is fsynced and a checkpoint with next id [n]
    commits it, and the next {!insert} gets id [n].  A crash before the
    checkpoint commits reopens as an empty store that can be seeded
    again.  Returns the ids.  Never call it on a follower: the rotation
    would break the WAL mirror.
    @raise Invalid_argument if any id was ever allocated (the store is
    not empty) or a compaction is in flight.
    @raise Degraded if the write path is (or goes) out of service — the
    store is then still empty. *)

val compact : ?wait:bool -> ?rotate:bool -> t -> bool
(** Rebuilds base ⊎ deltas minus tombstones, checkpoints, prunes WALs
    and installs the result.  With [wait = false] the heavy rebuild runs
    on a background thread (the memtable seal and WAL rotation still
    happen synchronously, so the snapshot cut is well defined).
    [rotate = false] (the {e replica} shape) cuts mid-file instead of
    rotating: a follower's WAL file sequence must stay a byte-for-byte
    mirror of the primary's, so it may never invent a rotation of its
    own — the checkpoint records the mid-file replay offset and pruning
    keeps the current file.  [false] if a compaction was already in
    flight — at most one runs at a time.

    A {e settled} store is left alone and [compact] returns [true]: with
    no sealed delta, an empty memtable and no tombstone, and a base (or
    none) that is an xseqcol2 file built under the store's config, a
    rebuild would only rewrite the same base.  The base file, the
    checkpoint and the WAL are untouched (no rotation).  A legacy
    xseqcol1 base, or one built under another config, is rewritten. *)

val query : ?stats:Xquery.Matcher.stats -> t -> Pattern.t -> int list
(** Live ids of the documents containing the pattern, sorted — answers
    are id-for-id what a from-scratch {!Xseq.build} over the live
    document set would give. *)

val query_xpath : ?stats:Xquery.Matcher.stats -> t -> string -> int list

(** {1 Prepared queries}

    Mirror of {!Xseq.prepare}/{!Xseq.run_prepared} for the server's plan
    cache: a plan compiles one sub-plan per sealed index and is stamped
    with the view's structure {!generation}.  Inserts, removes and even
    memtable growth do {e not} invalidate plans (the run reads the
    current tombstones and memtable); sealing a segment or installing a
    compaction does. *)

type prepared

val prepare : t -> Pattern.t -> prepared
(** @raise Xquery.Instantiate.Too_many when expansion explodes (the
    caller falls back to {!query}, whose scan fallback is exact). *)

val run_prepared : ?stats:Xquery.Matcher.stats -> t -> prepared -> int list
(** @raise Invalid_argument if the store's sealed structure changed
    since {!prepare} — re-prepare, exactly as for {!Xseq.run_prepared}
    across a hot swap. *)

val generation : t -> int
(** Stamp of the current sealed structure, from the same process-wide
    sequence as {!Xseq.generation}.  Changes on open, seal and
    compaction install; {e not} on insert/remove. *)

(** {1 Degraded state}

    The graceful-degradation contract: disk faults on the write path
    never crash the store or silently drop acknowledged data — they flip
    it read-only ({!Degraded} on every mutation) while queries keep
    serving the installed view.  Recovery rotates to a fresh WAL (the
    magic write + fsync is the disk-health probe) and then re-persists
    everything visible with a full synchronous compaction, closing the
    window of records whose buffered WAL bytes died with the fault. *)

val degraded_reason : t -> string option
(** [Some reason] while the store is read-only.  Lock-free — health
    checks never contend with writers. *)

val try_recover : t -> bool
(** Probes the disk and, if writes reach stable storage again,
    checkpoints the full in-memory state and re-arms the write path.
    [true] if the store is writable on return (including "was never
    degraded"); [false] if still degraded or a compaction is in flight.
    Mutations also probe automatically, rate-limited by
    [probe_interval], so a recovered disk re-arms without any explicit
    call. *)

val abandon : t -> unit
(** Closes the handle {e without} flushing, syncing or checkpointing —
    no disk I/O beyond closing fds.  For tests that simulated a crash
    ({!Xfault.Crashed}) and will reopen from the directory: {!close}
    would write, which a crashed process cannot.  Idempotent. *)

(** {1 Introspection} *)

val doc_count : t -> int
(** Live documents (inserted minus tombstoned). *)

val next_id : t -> int
(** Ids allocated so far (the next insert's id). *)

val pending : t -> int
(** Documents in the unindexed memtable. *)

val segments : t -> int
(** Sealed delta segments (the compacted base not included). *)

val base : t -> Xseq.t option
(** The installed compacted base index, if any.  Its document ids are
    positions in the base, not store ids. *)

val tombstones : t -> int
(** Tombstones carried by the current view (compaction reclaims them). *)

val wal_offset : t -> int
(** End-of-log offset of the current WAL file. *)

(** {1 Replication}

    The WAL doubles as the replication stream: a primary's log is
    shipped record-for-record and a follower {e mirrors} it —
    {!replica_apply} lands each batch at exactly the (file, offset) the
    primary wrote it and replays rotations as rotations, so positions
    are cluster-universal, the follower's own log end is its resume
    cursor across restarts (torn-tail truncation trims any half-received
    batch), and promotion needs no data movement: the new primary keeps
    appending where the mirror ends.  Follower-side compaction must use
    [compact ~rotate:false].  See [Xrepl] for the engine built on
    these. *)

val wal_position : t -> Wal.position
(** End of the WAL file sequence — what {!Wal.tail} resumes from, and
    the [from] a mirroring follower must present. *)

val wal_durable_position : t -> Wal.position
(** Like {!wal_position} but only counting bytes fsynced to stable
    storage — what heartbeats advertise and promotion elections
    compare. *)

val replica_apply :
  t -> from:Wal.position -> next:Wal.position -> string -> (Wal.position, string) result
(** Applies one {!Wal.tail} batch to a follower: validates every record
    checksum, appends the raw bytes at [from] (which must equal
    {!wal_position} — a mismatch is an [Error], the subscriber's cue to
    resubscribe from the real log end), updates the visible view
    (inserts land in the memtable under their {e original} ids, removes
    tombstone), seals/compacts exactly as the primary's ingest path
    does, mirrors the rotation when [next] names a later file, and
    syncs.  Returns the new durable position — what the follower may
    acknowledge upstream.
    @raise Degraded if the replica's own disk refuses the write. *)

val set_wal_retention : t -> (unit -> int option) -> unit
(** Installs the pruning retention hook: called before each
    checkpoint's WAL pruning, [Some seq] keeps files [>= seq] alive
    (a primary's live subscriptions still reading them).  Pruning
    beyond an active cursor is not fatal — {!Wal.tail} answers
    [Position_pruned] and the follower re-seeds — just expensive. *)

val dir : t -> string

val sync : t -> unit
(** Flushes and fsyncs the WAL without sealing. *)

val close : t -> unit
(** Waits for any background compaction, syncs and closes the WAL.
    Idempotent; further mutations raise [Invalid_argument]. *)

(** {1 Snapshot transfer}

    The re-seed path for a follower whose cursor fell behind WAL pruning
    (or one starting from an empty directory): stream the primary's
    latest checkpointed state, install it atomically, resume tailing.

    A transfer {e stream} is a deterministic byte sequence derived from
    one checkpoint: a manifest header, then the checkpoint file, the
    base snapshot it names, and the WAL {e prefix} [0, c_wal_offset) of
    file [c_wal_index] — exactly the bytes the checkpoint covers.
    Records past that cut are not in the stream; they arrive through
    normal tailing once the snapshot is installed.  Because every byte
    is fixed once the checkpoint is written, a resume cursor is stable:
    reconnecting mid-transfer continues at the same offset as long as
    the token (the checkpoint's checksum in hex) still matches.

    Installation is crash-safe by construction: bytes stage into
    [xfer.tmp/]; on completion every staged file's own checksums are
    verified, a [MANIFEST] naming the staged set is persisted, and the
    directory is renamed to [xfer.ready/] (the commit point).  {!open_}
    and {!reseed} run {!Transfer.install_ready} first, which replays a
    committed install idempotently — [kill -9] anywhere leaves either
    the old state or, after the rename, a completed install on the next
    open.  Pre-commit debris is discarded. *)

module Transfer : sig
  type entry = { e_name : string; e_size : int }

  type manifest = {
    x_token : string;
        (** identity of the snapshot: checkpoint checksum in hex
            (["empty"] for a store with no checkpoint yet) *)
    x_entries : entry list;
    x_header : string;  (** encoded stream header (byte 0 onwards) *)
    x_total : int;  (** total stream bytes, header included *)
    x_wal_index : int;
        (** WAL files [>= this] must survive pruning while the transfer
            is live — what the sender pins via {!set_wal_retention} *)
  }

  val manifest_of_dir : string -> (manifest, string) result
  (** Builds the stream description for a store directory's current
      checkpoint.  Cheap — [stat] calls plus one checkpoint read, no
      checksumming of data files (the receiver verifies those). *)

  val read_slice : string -> manifest -> off:int -> len:int -> (string, string) result
  (** [read_slice dir m ~off ~len] reads stream bytes [off, off+len)
      (short only at the end of the stream).  [Error] when a file
      changed under the manifest — rebuild and compare tokens. *)

  type receiver

  val recv_create : string -> receiver
  (** Starts (or restarts) receiving into [dir/xfer.tmp], discarding any
      previous staging state. *)

  val recv_write : receiver -> string -> (unit, string) result
  (** Feeds the next in-order chunk of stream bytes. *)

  val recv_got : receiver -> int
  (** Stream bytes consumed so far — the resume cursor. *)

  val recv_finish : receiver -> (unit, string) result
  (** The stream is complete: verify every staged file end to end
      (checkpoint codec, snapshot region checksums, WAL record
      checksums) and commit the staging directory to [xfer.ready].
      After [Ok], {!install_ready} (or the next {!open_}) completes the
      install even across crashes. *)

  val recv_abort : receiver -> unit
  (** Discards the staging directory. *)

  val install_ready : string -> bool
  (** Idempotently completes a committed install in [dir]: removes data
      files the staged snapshot does not carry, moves the staged set in,
      cleans up.  [true] iff a snapshot was installed.  Must not be
      called on a directory with a live store handle — use {!reseed}
      for that. *)
end

val reseed : t -> (unit, string) result
(** Installs a committed snapshot ([xfer.ready], see {!Transfer}) into a
    {e live} store handle: aborts the current WAL writer, runs the
    install, and re-runs recovery in place — same [t], new state, and
    the degraded flag (a quarantined scrub, a stranded cursor) is
    cleared on success.  The caller must have quiesced local writers; a
    re-seeding follower has none.  [Error] if no committed snapshot is
    staged or a compaction is in flight. *)

(** {1 Anti-entropy scrub}

    Background re-verification of every at-rest checksum, so silent
    corruption is found by the scrubber — not by the first query that
    trips over it.  A failing pass {e quarantines} the store (degraded
    state: mutations raise {!Degraded}, queries keep serving the
    in-memory view, health reports the reason) and fires the repair
    callback; a later clean pass — after a snapshot re-fetch from the
    primary, say — lifts the quarantine and counts a repair. *)

module Scrub : sig
  type report = {
    files_scanned : int;
    bytes_scanned : int;
    errors : (string * string) list;  (** (file, diagnosis), oldest first *)
  }

  val scrub_dir :
    ?rate_mb_s:float ->
    ?durable:int * int ->
    string ->
    report
  (** One offline pass over a store directory: checkpoint header, base
      snapshot regions, WAL record checksums.  [rate_mb_s] (default
      unlimited) sleeps between files to bound read bandwidth.
      [durable = (file, off)] marks the live fsync frontier: bytes past
      it in the active WAL file are in flux and a tear there is not an
      error (offline, a torn tail on the {e newest} file is recoverable
      and also not an error — unless it sits behind the checkpoint's
      covered offset, which proves those bytes were once durable; torn
      middles always are). *)

  val scrub_store : ?rate_mb_s:float -> t -> report
  (** One pass over a live store.  Races with compaction are detected
      (the checkpoint changed under the pass) and retried instead of
      reported.  A persistent error quarantines the store: degraded
      state is set to the first diagnosis, and the quarantine is sticky
      — the automatic WAL-rotation recovery probe does {e not} lift it
      (a working disk says nothing about bit rot).  Only a later clean
      pass or a {!reseed} does. *)

  type stats = {
    passes : int;
    files : int;  (** cumulative files scanned *)
    bytes : int;  (** cumulative bytes scanned *)
    errors_found : int;
    repairs : int;  (** quarantines lifted by a later clean pass *)
    quarantined : bool;
    last_error : string;  (** "" if the latest pass was clean *)
  }

  type scrubber

  val create :
    ?interval:float -> ?rate_mb_s:float -> ?log:(string -> unit) -> t -> scrubber
  (** A periodic scrubber over a live store.  [interval] (default 60s)
      between passes, [rate_mb_s] (default 32) read-bandwidth cap. *)

  val set_repair : scrubber -> (string -> unit) -> unit
  (** Called (with the diagnosis) when a pass quarantines the store —
      the hook a peer-connected node uses to request a snapshot re-fetch
      from its primary. *)

  val start : scrubber -> unit
  val stop : scrubber -> unit
  val run_once : scrubber -> report
  val stats : scrubber -> stats
end
