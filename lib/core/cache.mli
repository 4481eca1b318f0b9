(** A sharded, mutex-striped LRU result cache for the search engine.

    The adversary constructions are expensive and perfectly cacheable:
    the packed configuration keys ({!Ts_model.Ckey}) make every query the
    engine answers identifiable by a canonical digest, and the service
    layer's whole point is answering repeat queries without re-running the
    valency searches that dominate wall-clock.  This module is the storage
    half of that design.  Its one user is the service dispatcher
    ([Ts_service.Dispatch]); it needs only {!Ts_model.Ckey} digests and
    {!Ts_obs}, and the engines themselves never consult it.

    {b Sharding.}  The key's full-width FNV hash picks one of 8
    independent LRU shards, each guarded by its own [Mutex]: concurrent
    requests for different shards never contend, and a shard's lock is
    never held while a caller computes a missing value.

    {b Eviction.}  Exact LRU per shard, tracked by a monotone use stamp;
    capacity is divided evenly across shards (each shard holds at least
    one entry).

    {b Concurrency contract.}  A caller computes a missing value between
    {!find} and {!put} with no lock held, so two domains missing on the
    same key may both compute; the later {!put} overwrites the earlier
    one with an equal value (for deterministic computations).  Duplicated
    work on a cold key is the price of never blocking reads behind a slow
    compute.

    {b Observability.}  Hits, misses, evictions and the entry gauge mirror
    into {!Ts_obs.Obs.Metrics} under [<name>.hits] etc. (no-ops while
    metrics are disarmed), and every shard logs its accesses to the race
    detector's feed ({!Ts_obs.Obs.access}) as synchronized accesses, so an
    instrumented hammer run can certify the striping sound. *)

type 'v t

(** [create ~capacity ()] builds a cache holding at most [capacity]
    entries across 8 LRU shards (fewer when [capacity < 8]: one entry per
    shard).  [name] (default ["cache"]) prefixes the mirrored metrics.
    @raise Invalid_argument if [capacity < 1]. *)
val create : ?name:string -> capacity:int -> unit -> 'v t

(** [find t key] looks [key] up, refreshing its recency on a hit. *)
val find : 'v t -> Ts_model.Ckey.t -> 'v option

(** [put t key v] inserts or overwrites unconditionally, evicting the
    shard's least recently used entry when it is full. *)
val put : 'v t -> Ts_model.Ckey.t -> 'v -> unit

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
