(** Deterministic JSON serialization of engine results.

    These serializers are the {e single} rendering of engine answers: the
    daemon's response bodies, the CLI's [--json] output and the cache's
    stored entries all go through them.  That sharing is what gives the
    service its differential guarantee — a cached answer is the stored
    output of the very function a cold recomputation would call, so
    "cached equals fresh" reduces to the serializers being deterministic.

    Accordingly, {b nothing here may depend on wall-clock, addresses,
    hashing order or domain count}: inputs, schedules, stats counters and
    verdicts only.  Timing lives in the response {e envelope}
    ({!envelope_raw}'s [elapsed_ms]), which is never cached. *)

open Ts_model
open Ts_core
module Json := Ts_analysis.Json

(** Structural rendering of a register value: [Bot] as [null], ints and
    bools natively, pairs as [{"fst": ..., "snd": ...}], lists as
    arrays. *)
val value_to_json : Value.t -> Json.t

(** Theorem-1 outcome.  [verified] is the caller's independent
    {!Ts_core.Theorem.verify} replay of the certificate (run it before
    serializing — a service must never cache an unreplayed witness). *)
val witness_to_json :
  horizon_used:int ->
  verified:(unit, string) result ->
  Theorem.certificate ->
  Json.t

(** A stopped Theorem-1 construction: status ["partial"] with the stop
    and progress counters.  The stop is [{"reason": "budget", "breach":
    ...}] or [{"reason": "horizon", "detail": ...}], for either engine. *)
val witness_partial_to_json :
  horizon_used:int -> Theorem.stop -> Theorem.progress -> Json.t

(** Revisionist-engine outcome, the [--engine revisionist] sibling of
    {!witness_to_json}.  [verified] is the caller's independent
    [Ts_revisionist.Revisionist.verify] replay. *)
val revisionist_to_json :
  max_solo_used:int ->
  verified:(unit, string) result ->
  Ts_revisionist.Revisionist.certificate ->
  Json.t

(** A stopped revisionist construction, built as
    {!witness_partial_to_json} is: status ["partial"], the engine and its
    allowance, the stop (a [Wall] has reason ["horizon"]) and this
    engine's progress counters. *)
val revisionist_partial_to_json :
  max_solo_used:int ->
  Theorem.stop ->
  Ts_revisionist.Revisionist.progress ->
  Json.t

(** A checker result: verdict, optional violation (kind via
    {!Ts_checker.Explore.violation_kind}, inputs, schedule length and the
    kind-specific payload), full stats, optional breach, and a
    ["worker_errors"] list that is always empty (kept for the wire
    format).
    [replay] (for [resilient]) reports the independent witness replay. *)
val explore_to_json :
  ?replay:(unit, string) result -> Ts_checker.Explore.result -> Json.t

(** A valency classification of the canonical initial configuration. *)
val valency_to_json :
  inputs:Value.t array ->
  horizon:int ->
  Valency.verdict ->
  Valency.stats ->
  Json.t

(** On-disk witness store counters, the ["store"] section of the stats
    document. *)
val store_stats_to_json : Ts_store.Store.stats -> Json.t

(** Result-cache counters, the ["cache"] section of the stats document. *)
val cache_stats_to_json : Cache.stats -> Json.t

(** [envelope_raw ~id ~provenance ~cache_key ~elapsed_ms ~result] is the
    framed success document, compact and with its keys in this order:
    [{"id":ID,"ok":true,"provenance":P,"cache_key":K,"elapsed_ms":MS,
    "result":RESULT}].  [P] is ["fresh"], ["cached"] or ["recovered"];
    the [provenance] and [cache_key] members are omitted when [None]
    (uncacheable ops).  [result] is an already-serialized body, spliced
    in without parsing or re-rendering it — the event loop's hot path.
    Strings and [MS] are rendered by [Json.to_string], so the document
    is exactly what that emitter prints for the same object. *)
val envelope_raw :
  id:int ->
  provenance:string option ->
  cache_key:string option ->
  elapsed_ms:float ->
  result:string ->
  string

(** [error ~id ~code msg] is the failure document: [{"id": ..., "ok":
    false, "error": {"code": ..., "message": ...}}].  Stable codes:
    ["bad-frame"], ["bad-json"], ["bad-request"], ["unknown-protocol"],
    ["invalid-argument"], ["construction-failed"], ["out-of-budget"],
    ["overloaded"], ["shutting-down"], ["internal"].  [retry_after_ms] adds the
    machine-readable backpressure hint ([{"retry_after_ms": ...}] inside
    the error object) that backpressure refusals ([overloaded],
    [shutting-down]) carry and the resilient client honors — see
    docs/SERVICE.md "Error envelope schema". *)
val error : ?retry_after_ms:int -> id:int option -> code:string -> string -> Json.t
