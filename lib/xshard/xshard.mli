(** Shard-parallel engine: N independent {!Xlog} stores behind one
    hash-routed facade.

    A sharded store lives in a directory:

    {v
      xshard.meta      shard count, written once at creation (tmp+rename)
      shard-000/       a full Xlog store: WAL, delta segments, checkpoint
      shard-001/
      ...
    v}

    Each shard is a complete, independent {!Xlog.t} — its own WAL, its
    own memtable and delta segments, its own background compaction, its
    own degraded/read-only state.  Documents are routed to shards by a
    deterministic hash of the global insert sequence number, so load
    spreads evenly and the routing replays identically for a given
    operation history.  Shards are the unit of multicore scaling (each
    shard's write path and per-shard query work parallelise on the
    domain pool with no shared mutable state between shards) and, later,
    of multi-node distribution (ROADMAP item 4).

    {2 Id encoding}

    Global document ids carry the shard in their high bits:

    {v global = (shard lsl 52) lor local v}

    where [local] is the shard's own dense monotone {!Xlog} id.  Local
    ids stay monotone within a shard and the shard tag is the
    most-significant component, so the global id order is shard-major:
    concatenating per-shard sorted answers in shard order yields a
    globally sorted answer — scatter-gather needs no merge, exactly the
    monotone-id + sorted-concat design {!Xlog} uses for its segments.
    Ids are stable forever; a shard's tombstoned local ids are never
    reused, hence neither are global ids.

    {2 Failure semantics}

    A disk fault on one shard's WAL ([ENOSPC], [EIO]) degrades {e that
    shard only}: its mutations raise {!Xlog.Degraded} while its reads —
    and every other shard's reads and writes — keep working, and
    {!try_recover} re-arms it once the disk heals.  A fail-stopped
    shard (simulated power loss, {!Xfault.Crashed}) is marked {e down}:
    queries keep answering from the surviving shards and report the
    gap through the {!partial} flag, mutations routed to it raise
    {!Shard_down}, and {!recover_shard} re-opens it from disk (WAL
    replay) to re-arm it. *)

module Pattern = Xquery.Pattern

type t

exception Shard_down of int * string
(** An operation needed a shard that fail-stopped.  The payload is the
    shard index and the failure diagnostic.  Reads never raise this —
    they skip the shard and set {!partial.complete} to [false]. *)

(** {1 Id encoding} *)

val max_shards : int
val encode_id : shard:int -> local:int -> int
val shard_of_id : int -> int
val local_of_id : int -> int

(** {1 Lifecycle} *)

val open_ :
  ?shards:int ->
  ?sync_every:int ->
  ?memtable_limit:int ->
  ?max_segments:int ->
  ?domains:int ->
  ?pool:Xutil.Domain_pool.t ->
  ?config:Xseq.config ->
  ?probe_interval:float ->
  string ->
  t
(** Opens (creating if needed) a sharded store.  On creation [shards]
    (default 1) fixes the shard count forever and is recorded in
    [xshard.meta]; re-opening reads the recorded count and rejects a
    conflicting explicit [shards] with [Invalid_argument].  The
    remaining options are per-shard {!Xlog.open_} options; [domains]
    (without an explicit [pool]) creates one shared pool that every
    shard's builds and compactions use, closed again by {!close}.
    Recovery opens every shard (checkpoint load + WAL replay). *)

val is_sharded_dir : string -> bool
(** Whether the directory carries an [xshard.meta] (i.e. {!open_}
    rather than {!Xlog.open_} should open it). *)

val shard_count : t -> int
val dir : t -> string

val recovery : t -> (int * Xlog.recovery) list
(** Per-shard recovery reports from {!open_}, shards that replayed
    nothing included. *)

val close : t -> unit
(** Closes every live shard (down shards are skipped).  Idempotent. *)

val abandon : t -> unit
(** Closes every shard handle without any disk I/O — the post-crash
    twin of {!close}, see {!Xlog.abandon}. *)

(** {1 Mutations} *)

val insert : t -> Xmlcore.Xml_tree.t -> int
(** Routes the document to [hash seq mod shards] and appends it to that
    shard's WAL.  Returns the global id.  @raise Xlog.Degraded if the
    target shard is read-only — no id is consumed (local ids are
    allocated by the successful append only; the routing sequence
    number is consumed by the attempt, a load-balancing detail);
    @raise Shard_down if it fail-stopped. *)

val insert_batch : ?pool:Xutil.Domain_pool.t -> t -> Xmlcore.Xml_tree.t array -> int array
(** Routes the whole batch, then appends each shard's share in parallel
    (per-shard WALs are independent).  Returns the global ids in input
    order.  All-or-error per shard: if a shard degrades mid-batch the
    whole call raises after the surviving shards finished their share —
    acknowledged appends are durable, re-inserting the failed documents
    is the caller's retry. *)

val seed :
  ?pool:Xutil.Domain_pool.t -> t -> Xmlcore.Xml_tree.t array -> int array
(** Bulk-loads a store that never allocated an id: routes the batch
    exactly as {!insert_batch} would on it (so the ids are the same) and
    loads each shard's share with one {!Xlog.seed}, in parallel.  No
    shard's WAL holds a seeded record; every shard is durable on return.
    @raise Invalid_argument if any shard ever allocated an id;
    @raise Xlog.Degraded / @raise Shard_down as {!insert_batch}, after
    the other shards finished their share. *)

val remove : t -> int -> bool
(** Tombstones a global id on its shard.  [false] if the id's shard tag
    or local id was never allocated, or it is already removed.
    @raise Xlog.Degraded / @raise Shard_down as {!insert}. *)

val flush : t -> unit
(** {!Xlog.flush} on every live shard. *)

val sync : t -> unit

val compact : ?wait:bool -> t -> bool
(** Compacts every live shard; [true] if every live shard started (and
    with [wait] finished) one. *)

(** {1 Queries (scatter-gather)} *)

type 'a partial = {
  value : 'a;
  complete : bool;  (** no shard was skipped *)
  failed_shards : (int * string) list;  (** down shards skipped *)
}

val query : ?stats:Xquery.Matcher.stats -> t -> Pattern.t -> int list
(** Scatter to every live shard, gather by sorted concatenation of the
    per-shard answers (global ids, ascending).  Down shards are
    skipped; use {!query_detail} to observe the gap. *)

val query_detail :
  ?stats:Xquery.Matcher.stats -> t -> Pattern.t -> int list partial

val query_xpath : ?stats:Xquery.Matcher.stats -> t -> string -> int list

val query_batch :
  ?pool:Xutil.Domain_pool.t ->
  ?stats:Xquery.Matcher.stats ->
  t ->
  Pattern.t array ->
  int list array
(** Scatter-gather over patterns × shards: one task per shard answers
    the whole batch against that shard with worker-private matcher
    stats, tasks run on [pool] (inline without one), and per-pattern
    answers concatenate in shard order — already globally sorted.  The
    private stats are merged into [stats] once per shard, not per
    query. *)

(** {1 Prepared queries} *)

type prepared

val prepare : t -> Pattern.t -> prepared
(** One per-shard plan each, stamped with the combined generation.
    @raise Xquery.Instantiate.Too_many as {!Xlog.prepare}. *)

val run_prepared :
  ?stats:Xquery.Matcher.stats -> t -> prepared -> int list
(** @raise Invalid_argument if any shard's sealed structure changed
    since {!prepare} — re-prepare, as with {!Xlog.run_prepared}. *)

val generation : t -> int
(** Sum of the shard generations: strictly monotone, changes whenever
    any shard seals, compacts or re-opens — the plan-cache stamp. *)

(** {1 Degradation and recovery} *)

val degraded_shards : t -> (int * string) list
(** Shards currently refusing writes: read-only (degraded) or down,
    with their diagnostic. *)

val down_shards : t -> (int * string) list
(** Fail-stopped shards only. *)

val mark_down : t -> int -> string -> unit
(** Declares a shard fail-stopped (the engine also does this itself
    when a shard operation raises {!Xfault.Crashed}). *)

val try_recover : t -> bool
(** Probes every degraded shard ({!Xlog.try_recover}) and re-opens
    every down shard from disk.  [true] if every shard accepts writes
    on return. *)

val recover_shard : t -> int -> bool
(** Recovery for one shard: {!Xlog.try_recover} if degraded, re-open
    from disk if down.  [true] if that shard accepts writes. *)

(** {1 Introspection} *)

type shard_info = {
  shard : int;
  docs : int;
  pending : int;
  segments : int;
  tombstones : int;
  next_local_id : int;
  wal_offset : int;
  degraded : string option;
  down : string option;
}

val shard_infos : t -> shard_info array
val doc_count : t -> int  (** Live documents across all shards. *)

val next_seq : t -> int
(** Global insert sequence number the next {!insert} will route by. *)

val next_route : t -> int
(** The shard the next {!insert} will be routed to. *)
