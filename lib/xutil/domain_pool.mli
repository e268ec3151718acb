(** A reusable fixed-size pool of worker domains (OCaml ≥ 5.1).

    The pool owns [size] worker domains that pull jobs from a shared
    queue.  All batch entry points ({!run}, {!map}, {!mapi}, {!iter})
    block the caller until the whole batch has completed, return results
    in input order, and re-raise the exception of the {e lowest-indexed}
    failing task — so a parallel run fails exactly like the equivalent
    sequential loop would, deterministically, regardless of which worker
    ran what and in which order.

    A pool of size 1 spawns no domains at all: every batch runs inline in
    the caller, which makes [~domains:1] a true sequential baseline (used
    by the determinism tests) and keeps single-core deployments
    zero-overhead.

    {2 Thread-safety contract}

    The pool synchronises its own queue and result slots; it does {e not}
    make the task functions safe.  Tasks run concurrently on several
    domains, so they must only touch shared state that is immutable or
    independently synchronised for the duration of the batch.  In this
    codebase the relevant shared structure is an index's symbol table
    ([Sequencing.Symtab]): parallel phases must be arranged so that they
    only {e read} it (see [Xseq.build]'s sequential flatten phase and
    DESIGN.md §9).

    {2 Dispatch}

    Batch dispatch is {e self-scheduling}: a batch enqueues at most one
    runner per worker, and runners (including one in the caller, which
    participates in its own batch) claim tasks with a wait-free
    fetch-and-add on a shared cursor.  Queue traffic is O(workers) per
    batch regardless of batch size, and a fast runner keeps claiming
    tasks while slower ones finish — chunked work-stealing without
    per-item handoff.  Because the caller always participates, a batch
    completes even when every worker is busy elsewhere, so nested batch
    submission cannot deadlock (it simply runs with less parallelism). *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] starts a pool of [domains] workers
    (default {!Domain.recommended_domain_count}).
    @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** Number of worker slots ([1] means inline execution). *)

val run : t -> (unit -> 'a) array -> 'a array
(** [run t thunks] executes every thunk (in parallel when [size t > 1])
    and returns their results in input order.  If one or more thunks
    raise, the batch still runs to completion and the exception of the
    lowest-indexed failing thunk is re-raised in the caller.
    @raise Invalid_argument if the pool has been {!shutdown}. *)

val map : ?chunks:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr] computed in parallel over
    contiguous chunks.  [chunks] caps the number of chunks (default
    [4 * size t], for load balancing); the result order — and, on
    failure, the raised exception — are those of the sequential map. *)

val mapi : ?chunks:int -> t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Like {!map} with the element index. *)

val iter : ?chunks:int -> t -> ('a -> unit) -> 'a array -> unit
(** [iter t f arr] applies [f] to every element, in parallel chunks. *)

val async : t -> (unit -> unit) -> unit
(** [async t job] submits a single fire-and-forget job and returns
    immediately.  Exceptions raised by [job] are swallowed (completion
    signalling is the caller's business — see [Xserver.Server], whose
    jobs fill a mutex-guarded response slot).  On a size-1 pool the job
    runs inline in the caller before [async] returns.
    @raise Invalid_argument if the pool has been {!shutdown}. *)

val shutdown : t -> unit
(** Drains nothing: waits only for in-flight jobs, then joins every
    worker.  Idempotent; subsequent batch submissions raise
    [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)
