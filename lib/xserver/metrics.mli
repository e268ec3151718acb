(** The server-side metrics registry: request counters by operation,
    latency histogram, byte accounting, plan-cache and matcher counters.

    One registry per server, shared by every connection thread and worker
    domain behind a single mutex (counter bumps are nanoseconds next to
    query execution).  The [Stats] wire op and [xseq serve
    --metrics-interval] both render {!to_json}. *)

type t

val create : unit -> t

(** {1 Recording} *)

val record_request : t -> op:string -> latency_s:float -> unit
(** Counts one completed request of kind [op] ("ping", "query",
    "query_batch", "stats", "reload") and files its latency into the
    histogram. *)

val record_error : t -> code:string -> unit
(** Counts one error frame sent, by {!Protocol.error_code_to_string}. *)

val add_bytes : t -> received:int -> sent:int -> unit
val connection_opened : t -> unit
val connection_closed : t -> unit

val merge_matcher : t -> Xquery.Matcher.stats -> unit
(** Folds one request's private matcher counters into the registry via
    {!Xquery.Matcher.merge_stats}. *)

(** {1 Reading} *)

val to_json :
  ?extra:(string * string) list -> t -> string
(** The whole registry as one JSON object (counters, per-op requests,
    error counts, latency histogram, matcher totals, byte and connection
    accounting).  [extra] appends caller fields — the server injects
    [generation], plan-cache hit/miss counts and uptime; values must
    already be valid JSON. *)
