(** Witness certificates: self-contained, independently checkable records
    of what the engine claims to have found.

    A certificate packages everything a third party needs to audit an
    answer without trusting the engine: the protocol id and parameters,
    the input vector, the full schedule (steps and coin resolutions), the
    step-by-step trace the schedule induces (with the value every read
    returned and every swap displaced), the final state it reaches, and
    the claimed verdict — a Theorem-1 space bound, or a violation kind
    with its witness data.  The whole document is serialized to canonical
    JSON and bound by a self-digest; [docs/CERTIFICATES.md] describes the
    format and the trust argument.

    Two independent parties check a certificate:

    - {!Ts_microcheck.Microcheck} (stdlib only, no engine code) replays
      the trace over a bare register file and confirms the claim;
    - {!validate} here re-runs the {e protocol} over the schedule and
      requires the regenerated trace and final state to agree byte for
      byte — the half the micro-checker cannot see.

    Emission is zero-cost when not requested: nothing below constructs a
    certificate unless explicitly called. *)

open Ts_model

(** Certificate format version.  Bump when the canonical serialization
    changes; {!Ts_microcheck.Microcheck.supported_cert_version} and the
    golden test in [suite_digest] pin it. *)
val cert_version : int

type t
(** A built certificate (an immutable canonical-JSON tree). *)

(** [of_theorem proto cert] packages a Theorem-1 certificate: kind
    ["space_bound"], claiming [n - 1] distinct registers written.
    @raise Invalid_argument if the schedule does not replay on [proto]. *)
val of_theorem : 's Protocol.t -> Ts_core.Theorem.certificate -> t

(** [of_revisionist proto cert] packages a revisionist-engine witness
    under the same ["space_bound"] kind and claim shape as
    {!of_theorem} — the micro-checker validates both engines' witnesses
    identically.
    @raise Invalid_argument if the schedule does not replay on [proto],
    or if the construction excluded crashed processes (its bound is below
    [n - 1] and does not fit this claim). *)
val of_revisionist : 's Protocol.t -> Ts_revisionist.Revisionist.certificate -> t

(** [of_violation ?k proto v] packages an {!Ts_checker.Explore.violation}
    ([k] is the set-agreement arity behind an agreement violation,
    default 1).
    @raise Invalid_argument if the schedule does not replay on [proto]. *)
val of_violation : ?k:int -> 's Protocol.t -> Ts_checker.Explore.violation -> t

(** Canonical serialization (compact JSON, self-digest included). *)
val to_string : t -> string

(** Parse a serialized certificate.  No validation beyond JSON syntax —
    use {!microcheck} / {!validate} for that. *)
val of_string : string -> (t, string) result

(** Run the independent micro-checker on a certificate. *)
val microcheck : t -> (unit, string) result

(** {!microcheck} straight from serialized bytes. *)
val microcheck_string : string -> (unit, string) result

(** [validate proto t] is the engine-side half of the audit: first
    {!microcheck} (whose refusal comes back prefixed ["microcheck: "]),
    then re-run [proto] over the certificate's inputs and schedule and
    require the regenerated trace, final state and digests to be
    identical.  Rejects certificates whose steps are legal register
    operations but not what the protocol was poised to do. *)
val validate : 's Protocol.t -> t -> (unit, string) result

(** [resign t] recomputes the self-digest after a structural edit — the
    forgery primitive the tamper tests use to prove that rejection does
    not hinge on the digest alone. *)
val resign : t -> t

(** Structured access for tamper tests: the underlying JSON tree. *)
val to_json : t -> Ts_microcheck.Microcheck.Json.t

val of_json : Ts_microcheck.Microcheck.Json.t -> t
