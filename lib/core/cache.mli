(** A sharded, mutex-striped LRU result cache for the search engine.

    The adversary constructions are expensive and perfectly cacheable:
    PR 1's packed configuration keys ({!Ts_model.Ckey}) make every query
    the engine answers identifiable by a canonical digest, and the service
    layer's whole point is answering repeat queries without re-running the
    valency searches that dominate wall-clock.  This module is the storage
    half of that design, kept in core so any cache-aware entry-point
    wrapper — the service dispatcher today, a memoized oracle tomorrow —
    shares one implementation.

    {b Sharding.}  The key's full-width FNV hash picks one of 8
    independent LRU shards, each guarded by its own [Mutex]: concurrent
    requests for different shards never contend, and a shard's lock is
    never held while a caller computes a missing value.

    {b Eviction.}  Exact LRU per shard, tracked by a monotone use stamp;
    capacity is divided evenly across shards (each shard holds at least
    one entry).

    {b Concurrency contract.}  [find_or_compute] runs the computation
    {e outside} the shard lock, so two domains missing on the same key may
    both compute; the first insert wins and both callers get their own
    (equal, for deterministic computations) result.  Duplicated work on a
    cold key is the price of never blocking reads behind a slow compute.

    {b Observability.}  Hits, misses, evictions and the entry gauge mirror
    into {!Ts_obs.Obs.Metrics} under [<name>.hits] etc. (no-ops while
    metrics are disarmed), and every shard logs its accesses to the race
    detector's feed ({!Ts_obs.Obs.access}) as synchronized accesses, so an
    instrumented hammer run can certify the striping sound. *)

(** Where an answer came from: computed on this call, or served from the
    cache.  The payload is the answer either way — provenance is for the
    caller's reporting (the service's ["provenance"] response field, the
    differential cached-equals-fresh tests). *)
type 'v provenance =
  | Fresh of 'v
  | Cached of 'v

val value : 'v provenance -> 'v
val is_cached : 'v provenance -> bool

type 'v t

(** [create ~capacity ()] builds a cache holding at most [capacity]
    entries across 8 LRU shards (fewer when [capacity < 8]: one entry per
    shard).  [name] (default ["cache"]) prefixes the mirrored metrics.
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?name:string -> capacity:int -> unit -> 'v t

(** [find_or_compute t key f] is [Cached v] when [key] is present, else
    [Fresh (f ())] after inserting the computed value.  [f] runs without
    any lock held; see the concurrency contract above. *)
val find_or_compute : 'v t -> Ts_model.Ckey.t -> (unit -> 'v) -> 'v provenance

(** [find t key] peeks without computing (still refreshes recency). *)
val find : 'v t -> Ts_model.Ckey.t -> 'v option

(** [put t key v] inserts or overwrites unconditionally, then (by
    default) feeds the entry to the write-through hook.  Pass
    [~write_through:false] when the value is being {e loaded from} the
    durable layer — re-persisting what was just read would loop. *)
val put : ?write_through:bool -> 'v t -> Ts_model.Ckey.t -> 'v -> unit

(** [set_write_through t hook] taps every (write-through) insert:
    [hook key v] runs after the in-memory insert, outside any shard
    lock.  The service dispatcher points this at the persistent witness
    store, making the LRU a write-through cache over the append-only
    log.  The hook must be thread-safe — inserts come from any worker
    domain. *)
val set_write_through : 'v t -> (Ts_model.Ckey.t -> 'v -> unit) -> unit

(** Drop every entry (stats survive). *)
val clear : 'v t -> unit

(** Point-in-time counters, summed over shards. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** live entries right now *)
  capacity : int;  (** configured total capacity *)
  shards : int;
}

val stats : 'v t -> stats
val pp_stats : Format.formatter -> stats -> unit
