(** The one comparison of the two lower-bound engines.

    {!compare_engines} runs the Lemma 1–4 construction
    ({!Ts_core.Theorem}) and the revisionist-simulation engine
    ([Ts_revisionist.Revisionist]) on one protocol and diffs their
    answers.  It is the only code that compares the engines: the registry
    gate ([Analyze.gate], once per steppable entry), [witness --engine
    both] and the E26 table all call it.

    Each engine runs under its shared witness policy
    ({!Ts_core.Theorem.witness}, [Revisionist.witness]): an explicit
    horizon (for the revisionist engine, its private-run allowance) is a
    promise, and otherwise the engine escalates from [10 * n].  A
    complete run's witness is {e accepted} only if it replays on the
    shared execution substrate ({!Ts_core.Theorem.verify} /
    [Revisionist.verify]) and its ["space_bound"] certificate passes both
    the engine replay ({!Ts_cert.Cert.validate}) and the independent
    micro-checker.  One rule ({!val-verdict}) then decides:

    - both engines complete: {!Agreed} when both witnesses are accepted
      and {!Ts_core.Outcome.agree} holds, {!Diverged} otherwise;
    - one completes and the other stops at its own horizon or search
      wall: {!Diverged} — the planted [broken-scribbler] case, where the
      revisionist adversary claims a bound and the Lemmas engine finds
      Proposition 2 false;
    - any budget trip, or neither engine completing: {!Unavailable}.

    Instrumentation: span [crosscheck.protocol] (cat [crosscheck]) per
    comparison; counters [crosscheck.compared], [crosscheck.agreed],
    [crosscheck.diverged], [crosscheck.unavailable]
    (docs/OBSERVABILITY.md). *)

(** One engine's result, reduced for the verdict. *)
type engine_result =
  | Completed of Ts_core.Outcome.summary * string list
      (** construction complete; the list holds witness-acceptance
          errors (replay / certificate validation / micro-checker) and
          is empty iff the witness is accepted *)
  | Walled of string
      (** stopped at the engine's own horizon (Lemmas) or search wall
          (revisionist), with the stop reason *)
  | Tripped of string  (** stopped by the caller's budget, with the breach *)

(** One engine's side of a comparison. *)
type 'o side = {
  outcome : 'o;  (** the engine's own outcome *)
  used : int;
      (** the horizon (Lemmas) or private-run allowance (revisionist)
          the outcome came from *)
  result : engine_result;
  cert : Ts_cert.Cert.t option;
      (** the ["space_bound"] certificate of a complete run, when it
          could be built *)
  ns : int64;  (** wall clock of the run and its acceptance *)
}

(** What the diff of the two answers came to. *)
type verdict =
  | Agreed of int  (** both complete and accepted, equal bound *)
  | Diverged of string  (** a disagreement, with the reason *)
  | Unavailable of string
      (** nothing to compare: a budget trip, neither engine complete,
          or (the registry gate) static errors that kept the protocol
          from being stepped *)

type comparison = {
  lemmas : Ts_core.Theorem.outcome side;
  revisionist : Ts_revisionist.Revisionist.outcome side;
  verdict : verdict;
}

(** [verdict lemmas revisionist] is the one verdict rule above. *)
val verdict : engine_result -> engine_result -> verdict

(** [compare_engines ?budget ?horizon proto] runs both engines on [proto]
    and returns both sides and the verdict.  [budget ()] is called once
    per engine, just before it runs (default: unlimited); return one
    guard twice to share it between the engines.  [horizon] is the
    Lemmas oracle horizon and the revisionist private-run allowance; by
    default both escalate from [10 * n].  A protocol whose step function
    raises makes this raise too. *)
val compare_engines :
  ?budget:(unit -> Ts_core.Budget.t) ->
  ?horizon:int ->
  's Ts_model.Protocol.t ->
  comparison

val verdict_to_json : verdict -> Json.t
val pp_verdict : Format.formatter -> verdict -> unit
