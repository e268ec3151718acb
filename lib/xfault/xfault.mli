(** Deterministic fault injection for the I/O stack.

    Every byte the system moves — WAL appends, checkpoint commits,
    columnar snapshot saves, wire-protocol frames — goes through the
    {!Io} shim below.  With no injector installed the shim is a single
    atomic load on top of the raw [Unix] call.  With one installed,
    each call consults a {e schedule}: a list of rules saying "at the
    k-th operation of class [c], inject fault [f]".  Schedules are
    either written by hand (deterministic regression tests) or derived
    from a seed ({!random_schedule}), so every failure a randomized
    torture run finds is replayable from [(seed, schedule)] — tests
    print both on failure.

    Faults modelled, mirroring what production disks and sockets do:
    short reads/writes, [EINTR] storms, [ENOSPC], [EIO], [fsync]
    failure, latency spikes, connection resets, and {e fail-stop} (the
    process "crashes" at the k-th write: {!Crashed} is raised and every
    later shimmed operation raises it too, so nothing — not even a
    background thread — can touch the disk after the crash point). *)

(** Operation classes the shim distinguishes.  File I/O and socket I/O
    are separate classes, so a schedule can starve the WAL of disk
    without touching the server's sockets (and vice versa). *)
type op =
  | Open  (** [Unix.openfile] *)
  | Read  (** file reads *)
  | Write  (** file writes *)
  | Fsync
  | Rename
  | Send  (** socket writes *)
  | Recv  (** socket reads *)
  | Connect

type fault =
  | Short of int
      (** clamp this read/write to at most [max 1 n] bytes — the
          caller's short-count loop must absorb it *)
  | Eintr of int
      (** raise [EINTR] for this and the next [n-1] calls of the same
          class: an interrupt storm *)
  | Enospc  (** raise [ENOSPC] *)
  | Eio  (** raise [EIO] *)
  | Conn_reset  (** raise [ECONNRESET] *)
  | Delay of float  (** sleep this many seconds, then proceed *)
  | Fail_stop
      (** raise {!Crashed}; the injector then refuses every further
          operation with {!Crashed} — simulated power loss *)
  | Black_hole of int
      (** partition: this and the next [n-1] calls of the class vanish
          into the network.  [Send] claims full success while moving no
          bytes (the peer hears silence — heartbeat timeouts, not
          errors); [Recv] and [Connect] raise [ETIMEDOUT]; the file
          classes raise [EIO] *)
  | Half_open of int
      (** the peer died without a FIN: [Send] is swallowed claiming
          success, [Recv] reports a clean end of stream, [Connect]
          raises [ECONNREFUSED] — for [n] calls of the class *)
  | Slow_link of float * int
      (** degraded link: sleep this many seconds before each of the
          next [n] calls of the class, then proceed normally *)

type rule = { at : int; on : op; fault : fault }
(** Fire [fault] at the [at]-th shimmed operation of class [on]
    (counting from 0).  Each rule fires exactly once (except
    [Fail_stop], which is sticky by construction). *)

type schedule = rule list

exception Crashed
(** The simulated fail-stop point was reached.  Treat the store handle
    as a corpse: abandon it and recover from disk. *)

val op_to_string : op -> string
val fault_to_string : fault -> string

val schedule_to_string : schedule -> string
(** One line, machine-readable enough to paste into a regression test:
    [write@17:enospc fsync@3:eio ...]. *)

val schedule_of_string : string -> (schedule, string) result
(** Inverse of {!schedule_to_string} — whitespace-separated rules (or
    ["(empty)"]).  How a failing torture run's printed schedule, or the
    [XSEQ_FAULT_SCHEDULE] environment variable the CLI honours, comes
    back to life.  [Error] names the first malformed token. *)

val socket_ops : op list
(** [[Send; Recv; Connect]] — the classes a partition schedule targets. *)

val random_partition_schedule :
  seed:int ->
  ?ops:op list ->
  ?horizon:int ->
  ?faults:int ->
  unit ->
  schedule
(** Network weather, reproducibly: [faults] rules (default 6) over the
    first [horizon] socket operations (default 400) of the given
    classes (default {!socket_ops}), weighted towards partitions —
    black-hole bursts, half-open peers, slow links — with resets and
    short writes mixed in and never a [Fail_stop].  The same seed
    always yields the same schedule. *)

val random_schedule :
  seed:int ->
  ?ops:op list ->
  ?horizon:int ->
  ?faults:int ->
  unit ->
  schedule
(** A reproducible schedule: [faults] rules (default 4) over the first
    [horizon] operations (default 200) of the given classes (default
    all file classes: [Open]/[Read]/[Write]/[Fsync]/[Rename]).  The
    same seed always yields the same schedule. *)

(** A stateful injector: per-class operation counters plus the rules
    not yet fired.  Thread-safe — the server's connection threads and
    the store's writer may hit it concurrently. *)
module Injector : sig
  type t

  val create : schedule -> t

  val describe : t -> string
  (** The schedule it was created with, via {!schedule_to_string}. *)

  val op_count : t -> op -> int
  (** How many operations of this class the shim has seen. *)

  val fired : t -> int
  (** Rules consumed so far. *)

  val crashed : t -> bool
  (** A [Fail_stop] rule fired: the injector refuses all I/O. *)
end

val install : Injector.t -> unit
(** Make the shim consult this injector.  At most one is active
    process-wide; installing replaces the previous one. *)

val uninstall : unit -> unit
(** Back to pass-through ([Io] calls become raw [Unix] calls). *)

val active : unit -> Injector.t option

val with_injector : Injector.t -> (unit -> 'a) -> 'a
(** [install], run, [uninstall] (also on exception). *)

(** The shim.  Drop-in replacements for the [Unix] calls they wrap;
    subsystems route {e all} their I/O through these.  Semantics with
    no injector installed are exactly the underlying call's. *)
module Io : sig
  val openfile :
    string -> Unix.open_flag list -> Unix.file_perm -> Unix.file_descr

  val read : Unix.file_descr -> bytes -> int -> int -> int
  val write : Unix.file_descr -> bytes -> int -> int -> int
  val write_substring : Unix.file_descr -> string -> int -> int -> int
  val fsync : Unix.file_descr -> unit
  val rename : string -> string -> unit
  val connect : Unix.file_descr -> Unix.sockaddr -> unit
  val send : Unix.file_descr -> bytes -> int -> int -> int
  val send_substring : Unix.file_descr -> string -> int -> int -> int
  val recv : Unix.file_descr -> bytes -> int -> int -> int

  val retry_eintr : (unit -> 'a) -> 'a
  (** [retry_eintr f] calls [f] again for as long as it fails with
      [EINTR]. *)

  val write_all : Unix.file_descr -> string -> int -> int -> unit
  (** [write_all fd s pos len] writes all [len] bytes with
      {!write_substring}, absorbing short writes and [EINTR]; real
      faults (ENOSPC, EIO, a fail-stop) escape. *)
end
