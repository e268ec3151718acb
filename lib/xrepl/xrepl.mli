(** Primary/follower replication over WAL shipping.

    The engine behind a replicated xseq pair (or group):

    - the {b primary} is an ordinary live server; its WAL doubles as
      the replication stream, shipped record-for-record by the server's
      subscription pump ({!Xserver.Server.repl_hooks});
    - a {b follower} runs {!Node} with [follow = Some primary]: a
      background thread subscribes from its own log end, mirrors every
      batch byte-for-byte at the primary's (file, offset) via
      {!Xlog.replica_apply}, acknowledges durable positions upstream,
      and serves reads from the same store — mutations answer
      [Not_primary] with the leader hint;
    - {b promotion} (manual [xseq promote], or automatic on primary
      silence) bumps a monotonic {e epoch}, persisted in [repl.meta]
      beside the store.  Epochs fence a resurrected old primary: its
      batches carry a stale epoch and followers refuse them, and a
      [Subscribe] announcing a higher epoch steps a deposed primary
      down on the spot.

    Positions are cluster-universal because the mirror is physical:
    the follower's own WAL end {e is} its resume cursor across process
    crashes (recovery truncates any torn half-batch), and promotion
    moves no data — the new primary appends where the mirror ends. *)

module Meta : sig
  type role = [ `Primary | `Follower ]

  type t = { epoch : int; role : role }

  val load : string -> t option
  (** [load dir] reads [dir/repl.meta]; [None] if absent or unreadable
      (a fresh store). *)

  val store : string -> t -> unit
  (** Atomic persist (tmp + fsync + rename): the epoch/role survive
      kill -9 at any point.
      @raise Unix.Unix_error when the disk refuses. *)
end

module Node : sig
  type config = {
    advertise : string;
        (** how peers and clients reach this node — the leader hint a
            promoted node hands out *)
    follow : string option;
        (** primary endpoint to subscribe to; [None] starts as primary
            (unless a persisted [repl.meta] says follower) *)
    peers : string list;
        (** every other node's endpoint — the electorate for automatic
            promotion *)
    sync_replicas : int;
        (** primary: acknowledge mutations only after this many
            followers durably hold them (0 = async) *)
    ack_timeout_ms : int;  (** primary: semi-sync parking bound *)
    heartbeat_timeout_ms : int;
        (** follower: the primary is presumed dead after this much
            silence (no batch, no heartbeat) *)
    auto_promote : bool;
        (** follower: on primary silence, run an election (highest
            durable position wins; advertise-string order breaks ties)
            and promote self if it wins *)
    retry_ms : int;  (** reconnect/election pacing *)
  }

  val default_config : config
  (** advertise "", no follow, no peers, async, 5s ack bound, 3s
      heartbeat timeout, no auto-promotion, 500ms retry. *)

  type t

  val create : config -> Xlog.t -> t
  (** Binds the engine to an open store.  Role and epoch come from
      [repl.meta] when present; otherwise [follow] decides the role
      (and an explicit [follow] {e demotes} a store whose meta says
      primary — the operator's word wins).  The initial state is
      persisted immediately. *)

  val hooks : t -> Xserver.Server.repl_hooks
  (** What to put in {!Xserver.Server.config.repl} — wiring this node's
      role, epoch, fencing and lag into the server. *)

  val start : t -> unit
  (** Spawns the background thread: subscribe/apply/ack while a
      follower, elections on silence (if [auto_promote]), idle while
      primary.  Idempotent. *)

  val stop : t -> unit
  (** Stops and joins the background thread.  Idempotent. *)

  val role : t -> Meta.role
  val epoch : t -> int

  val leader_hint : t -> string
  (** Endpoint of the currently known primary ("" if unknown, or if
      this node is it). *)

  val promote : t -> (int, string) result
  (** Manual promotion: bump the epoch, persist, flip to primary.
      [Ok epoch]; idempotent on a primary.  The server's [Promote] wire
      op lands here via {!hooks}. *)

  val lag : t -> int * int
  (** (records, bytes) behind the primary per its last heartbeat;
      (0, 0) on a primary. *)

  val last_error : t -> string option
  (** Sticky diagnostic of the last replication failure needing an
      operator (e.g. a reseed attempt that could not reach the
      primary). *)

  val request_reseed : t -> unit
  (** Asks the follower thread to replace its store with a fresh
      primary snapshot before the next subscription — the scrub
      repair hook: a quarantined region that re-verification cannot
      clear is healed by re-fetching the whole checkpoint.  No-op on a
      primary (the flag is consumed only while following). *)
end
