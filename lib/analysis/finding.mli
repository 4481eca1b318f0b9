(** Structured analyzer findings.

    Every pass (footprint lint, determinism checker, bounded property
    check, race detector) reports its results as a flat list of findings:
    a stable machine-readable code, a severity, and a human sentence.  The
    gate logic never parses messages — it looks only at severities and
    codes — so the codes are part of the CLI contract and must stay
    stable. *)

type severity =
  | Error  (** a model-conformance or correctness defect: fails the gate *)
  | Warning  (** suspicious but not conclusive within the explored bounds *)
  | Info  (** observability: summaries, unexercised handlers, skipped passes *)

type t = {
  protocol : string;  (** protocol instance name, or ["engine"] for engine-level passes *)
  pass : string;  (** ["lint"], ["determinism"], ["property"] or ["race"] *)
  code : string;  (** stable finding identifier, e.g. ["register-out-of-range"] *)
  severity : severity;
  message : string;
}

val v : protocol:string -> pass:string -> code:string -> severity -> string -> t

(** The [Error]-severity subset. *)
val errors : t list -> t list

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit

(** Deduplicating accumulator: the same defect shows up in many
    configurations, and one witness per distinct (code, message) pair is
    what the gate and a reviewer need. *)
module Sink : sig
  type finding := t

  type t

  val create : protocol:string -> pass:string -> t
  val report : t -> code:string -> severity -> string -> unit

  (** Findings in report order. *)
  val findings : t -> finding list
end
