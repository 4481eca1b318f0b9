(** The service brain: typed request → engine call → cached, enveloped
    response.

    One dispatcher owns one sharded result cache ({!Ts_core.Cache}) and,
    optionally, the persistent witness store ({!Ts_store.Store}) behind
    it.  Transport-free by design — the TCP server routes through
    {!route}, the CLI answers in-process through {!run}, and the tests
    call {!handle} (or the raw forms below) directly, so wire handling
    and engine semantics are testable apart.

    {b Serving tiers.}  The cache stores the {e serialized} result body
    (the compact JSON bytes), not a tree: a hit is spliced straight into
    the response envelope without re-rendering, which is both the
    zero-copy hot path and the differential guarantee — cached, fresh and
    recovered answers are byte-identical because they are literally the
    same bytes.  With a store attached, every complete answer computed
    here is appended to the log right after it enters the cache (a
    recovered answer is not re-appended), and a miss consults the log
    before computing: a restarted daemon answers
    previously-seen queries from disk (["provenance": "recovered"]).

    {b Cache policy.}  An answer is cached iff it is {e complete}: a
    verified Theorem-1 certificate, an exploration that did not trip its
    budget, a valency classification, an analyzer report.  Partial results and errors are recomputed every time — a
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

(** The largest [n] a [check] or [resilient] request may ask for:
    [Ts_checker.Explore.max_n] (16).  A larger [n] is refused by
    [Explore]'s own guard, before the protocol lookup, with an
    [invalid-argument] error that names this limit. *)
val max_explore_n : int

(** {1 The engine seam}

    Both front doors answer an engine operation ([witness], [check],
    [resilient], [valency], [analyze]) through one call path: {!run}
    computes a typed {!answer}, {!answer_to_json} renders the served
    result document, {!complete} decides whether it is cached, and
    {!refusal} names the error code and message of anything [run]
    raises.  The daemon calls them behind its cache ({!route}); the CLI
    calls them in-process and renders text, or the same document under
    [--json]. *)

(** One case per engine result. *)
type answer =
  | Witness of {
      horizon_used : int;  (** the oracle horizon the construction completed at *)
      cert : Ts_core.Theorem.certificate;
      replay : (unit, string) result;
          (** {!Ts_core.Theorem.verify}'s independent replay of [cert] *)
      certificate : Ts_cert.Cert.t option;
          (** built only when the request asks for one *)
    }  (** a complete Theorem-1 construction *)
  | Witness_partial of {
      horizon_used : int;
      stop : Ts_core.Theorem.stop;
      progress : Ts_core.Theorem.progress;
    }  (** a construction stopped by its budget or its oracle horizon *)
  | Explored of {
      result : Ts_checker.Explore.result;
      replay : (unit, string) result option;
          (** a [resilient] violation's independent
              {!Ts_checker.Explore.replay}, at the request's solo budget *)
      certificate : Ts_cert.Cert.t option;
          (** built only when the request asks for one and a violation
              was found *)
    }  (** a [check] or [resilient] exploration *)
  | Classified of {
      inputs : Ts_model.Value.t array;
      horizon : int;
      verdict : Ts_core.Valency.verdict;
      stats : Ts_core.Valency.stats;
    }  (** the valency of the canonical initial configuration *)
  | Analyzed of Ts_analysis.Analyze.analysis
      (** the registry gate's first stage for one entry *)

(** [run ?domains ~budget req] answers an engine request on the calling
    thread.  [domains] (default 1) fans [check] and [resilient] out over
    that many OCaml domains; it never changes the answer.  It builds a certificate only when [req] asks for one and
    does not micro-check it.  Raises what the engines raise ({!refusal}
    maps it to a code), and [Invalid_argument] for [ping], [stats] and
    [health], which are not engine operations. *)
val run : ?domains:int -> budget:Ts_core.Budget.t -> Request.t -> answer

(** The served result document of an answer, certificate included. *)
val answer_to_json : answer -> Json.t

(** Whether an answer is complete, hence cached (see the cache policy
    above): a witness whose replay verified, an exploration that did not
    trip its budget, every classification and analysis. *)
val complete : answer -> bool

(** [refusal exn] is the served error code and message for an exception
    that {!run} raised: ["unknown-protocol"] for a name the catalog or
    the registry does not know, ["invalid-argument"] for
    [Invalid_argument], ["construction-failed"] for [Failure] and
    {!Ts_core.Valency.Horizon_exceeded}, ["out-of-budget"] for
    {!Ts_core.Budget.Exhausted}, and ["internal"] for anything else. *)
val refusal : exn -> string * string

(** {1 The dispatcher} *)

type t

(** [create ()] builds a dispatcher.  [cache_capacity] (default [4096])
    sizes the result cache;
    [default_deadline]/[default_max_nodes] bound requests that carry no
    budget of their own; [extra_stats] is appended to the [stats]
    operation's result (the server injects queue depth and uptime);
    [store] attaches the persistent witness store as the durable tier
    behind the cache. *)
val create :
  ?cache_capacity:int ->
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

(** {!handle_raw} parsed back to a tree, for tests.  Never raises. *)
val handle : t -> Request.t -> Json.t

(** Counters of the underlying result cache. *)
val cache_stats : t -> Ts_core.Cache.stats

(** Counters of the attached store, when one is. *)
val store_stats : t -> Ts_store.Store.stats option

