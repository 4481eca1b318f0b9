(** The one comparison of the two lower-bound engines.

    {!compare_engines} runs the Lemma 1–4 construction
    ({!Ts_core.Theorem}) and the revisionist-simulation engine
    ([Ts_revisionist.Revisionist]) on one protocol and diffs their
    answers.  It is the only code that compares the engines: the registry
    gate ([Analyze.gate], once per steppable entry), [witness --engine
    both] and the E26 table all call it.

    Each engine runs under the one witness policy
    ({!Ts_core.Theorem.policy}, through {!Ts_core.Theorem.witness} and
    [Revisionist.witness]): an explicit horizon (for the revisionist
    engine, its private-run allowance) is a promise, and otherwise the
    engine escalates from [10 * n].  Both engines stop with the one
    {!Ts_core.Theorem.stop}.  A complete run's witness is {e accepted}
    only if it replays on the shared execution substrate
    ({!Ts_core.Theorem.verify} / [Revisionist.verify]) and its
    ["space_bound"] certificate passes {!Ts_cert.Cert.validate}: the
    independent micro-checker, then the engine replay.  One rule
    ({!val-verdict}) then decides:

    - both engines complete: {!Agreed} [(n - 1)] when both witnesses are
      accepted, {!Diverged} otherwise;
    - one completes and the other stops at a [Wall] (its horizon, or the
      revisionist private-run allowance): {!Diverged} — the planted
      [broken-scribbler] case, where the revisionist adversary claims a
      bound and the Lemmas engine finds Proposition 2 false;
    - any [Out_of_budget] stop, or neither engine completing:
      {!Unavailable}.

    The rule compares no claims, because acceptance already settles them:
    both certificates come from the one protocol instance, and the
    micro-checker refuses a ["space_bound"] claim unless its bound is
    [n - 1] and its trace writes at least that many distinct registers.
    So "agreed" means both engines completed with accepted [n - 1]
    witnesses; their schedules, and the registers those write, may
    differ.

    Instrumentation: span [crosscheck.protocol] (cat [crosscheck]) per
    comparison; counters [crosscheck.compared], [crosscheck.agreed],
    [crosscheck.diverged], [crosscheck.unavailable]
    (docs/OBSERVABILITY.md). *)

(** One engine's result, reduced for the verdict. *)
type engine_result =
  | Completed of int * string list
      (** construction complete on an [n]-process instance; the list
          holds witness-acceptance errors (replay / certificate build /
          certificate validation) and is empty iff the witness is
          accepted *)
  | Stopped of Ts_core.Theorem.stop
      (** stopped short of a witness: a [Wall] at the engine's own
          allowance, or [Out_of_budget] under the caller's budget *)

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
  | Agreed of int  (** both complete and accepted: the bound [n - 1] *)
  | Diverged of string  (** a disagreement, with the reason *)
  | Unavailable of string
      (** nothing to compare: a budget trip, neither engine complete,
          or (the registry gate) static errors that kept the protocol
          from being stepped *)

type comparison = {
  lemmas :
    (Ts_core.Theorem.certificate, Ts_core.Theorem.progress)
    Ts_core.Theorem.outcome
    side;
  revisionist :
    ( Ts_revisionist.Revisionist.certificate,
      Ts_revisionist.Revisionist.progress )
    Ts_core.Theorem.outcome
    side;
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
