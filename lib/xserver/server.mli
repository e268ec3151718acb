(** The xseq query daemon: a long-lived concurrent service answering
    {!Protocol} frames over TCP and Unix-domain sockets.

    {2 Architecture}

    An event-driven core: one event-loop thread running an
    {!Xutil.Evloop} (epoll(7) on Linux, [select] elsewhere) owns every
    listener and every connection.  Each connection is a
    non-blocking state machine — reading, executing and writing live
    at once, so clients may {e pipeline}: write N requests before
    reading any response, and responses come back strictly in request
    order.  A connection holds at most 256 decoded-but-unanswered
    requests; at that cap the server stops reading it until responses
    flush (backpressure, not an error).  Incremental frame decoding
    ({!Protocol.Decoder}) turns whatever bytes arrived into requests;
    cheap ops answer inline on the loop; queries and mutations execute
    on a shared {!Xutil.Domain_pool} of worker domains (queries
    micro-batched per tick to amortise the handoff), and workers post
    completions back through an eventfd wakeup.  Responses leave in
    batched writev(2) calls.  The loop only decodes, admits and writes
    frames; the matcher's work runs on the workers.  The primary's half of replication (subscription pump, semi-sync
    waiters, snapshot sender) lives in {!Replication}, which reaches a
    connection only through a small sink.  Everything else is
    bookkeeping:

    - {b Admission control}: at most [max_pending] query requests may be
      in flight (queued or executing) at once.  A request arriving beyond
      that answers an [Overloaded] error frame immediately — connections
      are never silently dropped.  Per-request deadlines ([timeout_ms] in
      the frame, else [default_timeout_ms]) are checked when a worker
      picks the job up: an expired request answers [Timeout] without
      touching the index.
    - {b Plan cache}: query compilation (wildcard instantiation +
      isomorphism expansion) is cached in a {!Plan_cache} LRU keyed by
      the {e normalized} pattern text, stamped with the index generation.
      One answer path serves every backend: an index, an [Xlog] and an
      [Xshard] store share the cache probe, the [Too_many] exact-scan
      fallback and the stale-plan fallback.
    - {b Hot swap}: the served index lives in an [Atomic.t]; [Reload]
      builds/loads the replacement off to the side and swaps the pointer,
      so concurrent queries answer against a consistent index — old until
      the swap commits, new after — and stale cached plans die on their
      generation stamp.
    - {b Robustness}: garbage, truncated or oversized frames answer an
      error frame (or close the connection) and never raise past the
      connection; the event loop cannot be crashed by a client.
    - {b Graceful shutdown}: {!stop} stops accepting, lets in-flight
      requests finish (bounded by a fixed 5 s), closes every
      connection, unlinks Unix socket files, and shuts the worker pool
      down — all on the loop thread, as it leaves. *)

type addr =
  | Tcp of string * int  (** host (interface to bind), port *)
  | Unix_sock of string  (** filesystem path *)

val addr_to_string : addr -> string

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"] or a bare path containing ['/'] → {!Unix_sock};
    ["HOST:PORT"] or [":PORT"] (localhost) → {!Tcp}. *)

type source =
  | Static of Xseq.t
      (** a resident index; [Reload None] is a no-op, [Reload (Some p)]
          swaps to the snapshot at [p] *)
  | Snapshot of string
      (** serve the snapshot at this path; [Reload None] re-loads the
          same path (picking up a newly written file), [Reload (Some p)]
          loads and switches to [p] *)
  | Live of Xlog.t
      (** durable ingestion store: queries answer over base + delta
          segments + memtable minus tombstones, and the [Insert] /
          [Delete] / [Flush] wire ops mutate it.  [Reload None] flushes
          the memtable and compacts in place (queries keep answering
          throughout); [Reload (Some p)] switches to the snapshot at
          [p]. *)
  | Sharded of Xshard.t
      (** N-shard live store ([serve --shards N]): inserts hash-route to
          a shard's WAL, queries scatter-gather over every shard.
          [Health]/[Stats] aggregate per-shard state — the server is
          degraded as soon as any shard refuses writes, and the Health
          probe doubles as the per-shard recovery probe (disk re-probe
          for degraded shards, re-open for fail-stopped ones).  [Reload
          None] flushes and compacts every shard in place. *)

(** {2 Replication hooks}

    A replicated node is an ordinary server whose config carries
    {!repl_hooks}.  The server then owns the {e wire} half of
    replication — [Subscribe] turns a connection into a long-lived WAL
    stream (batches and heartbeats pushed under the same write-side
    backpressure as every other response), [Wal_ack] feeds the
    semi-sync ack floor, mutations are gated on role and, with
    [repl_sync_replicas > 0], parked until enough subscribers durably
    hold them — while role, epoch, promotion and leader discovery stay
    with the hook provider ([Xrepl.Node]).  Servers without hooks
    answer [Unsupported] on every replication opcode. *)

type repl_hooks = {
  repl_log : Xlog.t;
      (** the replicated store; must be the server's [Live] source *)
  repl_role : unit -> [ `Primary | `Follower ];
  repl_epoch : unit -> int;  (** current fencing epoch *)
  repl_leader_hint : unit -> string;
      (** endpoint of the known primary, "" if unknown — the payload of
          every [Not_primary] answer *)
  repl_promote : unit -> (int, string) result;
      (** flip to primary, bumping the epoch; [Ok epoch] (idempotent on
          a primary), [Error] if persisting the role failed *)
  repl_observe_epoch : int -> unit;
      (** a subscriber announced this epoch; an implementation must step
          a primary down when it is higher (fencing) *)
  repl_lag : unit -> int * int;
      (** (records, bytes) this node trails its primary; (0,0) on a
          primary — surfaced as [repl_lag_records]/[repl_lag_bytes] in
          [Stats] *)
  repl_sync_replicas : int;
      (** acknowledge mutations only once this many subscribers durably
          hold them; 0 = fully asynchronous replication *)
  repl_ack_timeout_ms : int;
      (** parked mutations answer [Timeout] after this long — the write
          is applied locally, its replication indeterminate *)
}

type config = {
  workers : int;  (** worker domains executing queries (default 2) *)
  max_pending : int;  (** admission bound on in-flight queries (default 64) *)
  plan_cache_capacity : int;  (** 0 disables the prepared-plan cache *)
  default_timeout_ms : int;  (** deadline for requests that carry none; 0 = none *)
  debug_delay_ms : int;
      (** artificial per-query delay before the deadline check — test
          instrumentation for overload/timeout scenarios (default 0) *)
  snapshot_mode : Xstorage.Store.mode;
      (** how {!Snapshot} sources (including reload targets) are opened:
          [Resident] (default) materialises the index, [Paged] serves
          an xseqcol2 snapshot off disk through the buffer pool — Stats
          then reports [store.page_reads] / [store.page_hits] /
          [store.pool_pages] *)
  snapshot_pool_pages : int;
      (** buffer-pool capacity for [Paged] snapshot serving
          (default 256) *)
  repl : repl_hooks option;
      (** replication role; [None] (the default) serves a plain node *)
  scrub : Xlog.Scrub.scrubber option;
      (** anti-entropy scrubber to surface in Stats JSON (the [scrub]
          block: passes, bytes, errors, repairs, quarantined).  The
          server only reports its counters; starting and stopping the
          scrubber stays with whoever created it (default [None]) *)
}

val default_config : config

type t

val create : ?config:config -> source -> t

val start : t -> addr list -> unit
(** Binds one listener per address (Unix socket paths are unlinked
    first, so a stale file from a crashed server never blocks a
    restart), starts the event-loop thread — the only thread the server
    creates — and returns immediately.  Also installs [SIGTERM] and
    [SIGINT] handlers that trigger {!request_stop}, so a terminated (or
    Ctrl-C'd) server drains, closes its listeners and unlinks its Unix
    socket files on the way out.
    @raise Invalid_argument if [addrs] is empty or the server was
    already started.
    @raise Unix.Unix_error if a bind fails.  The listeners bound before
    the failure are closed (and their socket files unlinked) first, and
    the server can be started again. *)

val request_stop : t -> unit
(** Asks the server to shut down and returns immediately — safe to call
    from a signal handler.  The event-loop thread performs the actual
    drain/close/unlink sequence and then ends. *)

val stop : t -> unit
(** {!request_stop} then {!wait}. *)

val wait : t -> unit
(** Blocks until the server has fully shut down: joins the event-loop
    thread.  Returns at once if the server was never started. *)

val metrics : t -> Metrics.t

type plan
(** A cached compiled query: the run closure of a prepared plan over the
    store it was compiled for (an index, an [Xlog] or an [Xshard]
    store).  Every backend takes the same cache probe, prepare and
    fallbacks; the cache key carries the backend kind, so a sharded
    store's summed generation never names another kind's plan. *)

val plan_cache : t -> plan Plan_cache.t

val generation : t -> int
(** Generation of the index currently being served.  For a {!Live}
    source this is the store's structure generation: it advances on
    memtable seals and compaction installs, not on every insert. *)

val backing_store : t -> Xstorage.Store.t option
(** The open snapshot behind the served index when it pages
    ({!Xseq.backing_store}); [None] for an in-memory index and for live
    stores. *)

val pending : t -> int
(** Queries currently admitted (queued or executing). *)

val reload : ?path:string -> t -> int
(** Server-side hot swap (what the [Reload] wire op calls); returns the
    new generation.  Serialised: concurrent reloads queue.
    @raise Invalid_argument / Sys_error as the underlying load does. *)

val stats_json : t -> string
(** What the [Stats] op answers: {!Metrics.to_json} plus generation,
    uptime, plan-cache and admission gauges. *)
