(** The [tightspace serve] daemon: framed JSON over TCP on a
    single-threaded {!Evloop} readiness loop, with engine work on a
    {!Pool} of worker domains and (optionally) the persistent witness
    store ({!Ts_store.Store}) behind the result cache.

    {b Connection model.}  One domain runs the event loop and owns every
    socket: accepts, incremental frame parsing into per-connection
    reusable buffers, and batched writes all happen there.  A request the
    dispatcher can answer in O(lookup) — a cache or store hit, [ping],
    [stats], a typed parse error — is answered directly on the loop;
    engine computations are submitted to the pool and their answers
    posted back to the loop.  Responses on one connection are always
    delivered in request order, and clients may pipeline freely.  When
    the pool's queue is full the {e request} is answered with an
    ["overloaded"] error frame on the spot — admission control, not
    silent queueing — and the connection survives.

    {b Persistence.}  With [store_path] set, every complete answer is
    written through to the append-only witness log, and a restarted
    daemon opening the same path serves previously-seen queries from disk
    (["provenance": "recovered"]) without recomputation.

    {b Robustness.}  A malformed frame or unparsable request earns an
    error response and (for framing damage, which desynchronizes the
    stream) a closed connection — never a dead daemon.  Per-request
    engine work is bounded by the configured default budget unless the
    request carries its own.

    {b Shutdown.}  {!request_stop} (also safe from a signal handler)
    begins a graceful drain: the loop stops accepting and reading,
    parked requests get their answers, buffered output flushes (bounded
    by a few seconds), the pool drains, the store syncs and closes, and
    {!wait} returns.  [tightspace serve] wires SIGINT/SIGTERM to exactly
    this. *)

module Json := Ts_analysis.Json

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port — see {!port} *)
  workers : int;  (** worker domains for engine computations *)
  queue_cap : int;  (** submitted-but-unserved computation bound *)
  cache_capacity : int;  (** result-cache entries *)
  request_deadline : float option;
      (** default per-request wall-clock budget, seconds *)
  max_nodes : int option;  (** default per-request search-node budget *)
  store_path : string option;
      (** attach the persistent witness store at this path *)
  store_fsync : Ts_store.Store.fsync;  (** durability policy for appends *)
  verbose : bool;  (** log lifecycle events to stderr *)
}

val default_config : config

type t

(** [start config] binds, listens, opens the store (when configured),
    spawns the loop domain and the worker pool, and returns immediately.
    @raise Unix.Unix_error if the address cannot be bound.
    @raise Failure if the store path exists but is not a valid log. *)
val start : config -> t

(** The actually bound port (interesting when [config.port = 0]). *)
val port : t -> int

(** Begin a graceful drain.  Async-signal-safe (one atomic store). *)
val request_stop : t -> unit

val stopping : t -> bool

(** Block until the drain completes: loop domain joined, pool drained
    and joined, listener closed, store closed.  Call {!request_stop}
    first (or from a signal handler). *)
val wait : t -> unit

(** [stop t] is {!request_stop} followed by {!wait}. *)
val stop : t -> unit

(** The dispatcher, for in-process use (the tests read its cache
    counters). *)
val dispatcher : t -> Dispatch.t

type summary = {
  connections : int;  (** connections accepted by the loop *)
  requests : int;  (** well-formed requests dispatched *)
  malformed : int;  (** frames or documents rejected *)
  refused : int;  (** requests refused by admission control *)
  direct : int;  (** requests answered on the loop, no pool involved *)
  job_errors : int;  (** pool jobs that raised (contained) *)
  cache : Ts_core.Cache.stats;
  store : Ts_store.Store.stats option;  (** when a store is attached *)
  uptime : float;  (** seconds since {!start} *)
}

val summary : t -> summary
val summary_to_json : summary -> Json.t
val pp_summary : Format.formatter -> summary -> unit
