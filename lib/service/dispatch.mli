(** The service brain: typed request → engine call → cached, enveloped
    response.

    One dispatcher owns one sharded result cache ({!Ts_core.Cache}) and,
    optionally, the persistent witness store ({!Ts_store.Store}) behind
    it.  Transport-free by design — the TCP server, the CLI's [--json]
    one-shots and the tests all call {!handle} (or the raw forms below)
    directly, so wire handling and engine semantics are testable apart.

    {b Serving tiers.}  The cache stores the {e serialized} result body
    (the compact JSON bytes), not a tree: a hit is spliced straight into
    the response envelope without re-rendering, which is both the
    zero-copy hot path and the differential guarantee — cached, fresh and
    recovered answers are byte-identical because they are literally the
    same bytes.  With a store attached, every complete answer admitted to
    the cache is written through to the append-only log, and a miss
    consults the log before computing: a restarted daemon answers
    previously-seen queries from disk (["provenance": "recovered"]).

    {b Cache policy.}  An answer is cached iff it is {e complete}: a
    verified Theorem-1 certificate, an exploration that neither tripped
    its budget nor lost a worker, a valency classification, an analyzer
    report.  Partial results and errors are recomputed every time — a
    partial answer is an artifact of the requester's budget, not a fact
    about the protocol, and must never be served to a later caller with a
    bigger budget.

    {b Cache key anatomy.}  The key is a {!Ts_model.Ckey} digest of the
    canonical packing of every {e result-determining} request field:
    [cache_version ‖ op ‖ protocol ‖ n ‖ horizon ‖ seed ‖ max_configs ‖
    max_depth ‖ solo_budget ‖ check_solo ‖ t].  Budgets ([deadline],
    [max_nodes]) are deliberately excluded: they never change a complete
    answer, only whether an answer completes.  [cache_version] is baked
    into every digest, so bumping it invalidates the whole cache at once
    — required whenever the {!Ts_model.Ckey} component encodings or the
    {!Response} serialization change shape. *)

module Json := Ts_analysis.Json

(** Version stamp baked into every cache digest.  {b Bump this} whenever
    packed encodings ([Ckey], [Value.encode], a protocol state encoder) or
    the {!Response} result serialization change — the digest-stability
    regression test in [test/suite_digest.ml] fails loudly when that is
    forgotten. *)
val cache_version : int

(** The largest [n] a [check] or [resilient] request may ask for (16).
    Those searches enumerate all 2^n input vectors before their budget is
    first charged, so a larger [n] is refused with an [invalid-argument]
    error that names this limit. *)
val max_explore_n : int

type t

(** [create ()] builds a dispatcher.  [cache_capacity] (default [4096])
    and [cache_shards] (default [8]) size the result cache;
    [default_deadline]/[default_max_nodes] bound requests that carry no
    budget of their own; [extra_stats] is appended to the [stats]
    operation's result (the server injects queue depth and uptime);
    [store] attaches the persistent witness store as the durable tier
    behind the cache. *)
val create :
  ?cache_capacity:int ->
  ?cache_shards:int ->
  ?default_deadline:float ->
  ?default_max_nodes:int ->
  ?extra_stats:(unit -> (string * Json.t) list) ->
  ?store:Ts_store.Store.t ->
  unit ->
  t

(** The request's cache digest (also computed for uncacheable ops —
    harmless, and useful for logging). *)
val cache_key : Request.t -> Ts_model.Ckey.t

(** Hex form of {!cache_key}, as reported in responses. *)
val cache_key_hex : Request.t -> string

(** How {!route} answered, split by where the work may run:
    - [Answered doc]: produced on the calling thread in O(lookup) — a
      cache or store hit, a cheap op ([ping], [stats]) or a typed error.
      The event loop sends these without involving the pool.
    - [Deferred run]: an engine computation.  [run ()] executes it (on a
      worker domain), caches a complete answer and returns the response
      document; it never raises. *)
type outcome =
  | Answered of string
  | Deferred of (unit -> string)

(** [route t req] decides and, when cheap, answers.  Never raises. *)
val route : t -> Request.t -> outcome

(** [handle_raw t req] executes the request to completion on the calling
    thread and returns the full response document as its exact wire
    bytes.  Never raises. *)
val handle_raw : t -> Request.t -> string

(** {!handle_raw} parsed back to a tree — the CLI's [--json] one-shots
    and older tests.  Never raises. *)
val handle : t -> Request.t -> Json.t

(** Counters of the underlying result cache. *)
val cache_stats : t -> Ts_core.Cache.stats

(** Counters of the attached store, when one is. *)
val store_stats : t -> Ts_store.Store.stats option

(** Drop every cached result (tests; the [--no-cache] serve flag).  The
    durable store is untouched — dropped entries are re-recovered from
    disk on their next miss. *)
val clear_cache : t -> unit
