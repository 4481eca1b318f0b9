(** The revisionist-simulation lower-bound engine.

    A second, independent construction of the n−1 space bound, after
    Ellen–Gelashvili–Zhu's {e Revisionist Simulations} (PAPERS.md,
    arXiv 1711.02455).  Where {!Ts_core.Theorem} walks Zhu's Lemmas 1–4 —
    valency oracle, pigeonhole over covered sets, nice configurations —
    this engine plays the revisionist adversary directly:

    + run one process {e privately} (solo, unobserved) until it is poised
      to write a register no already-parked process covers;
    + {e park} it there, its fresh write pending, and move on to the next
      process against the configuration the private run produced;
    + when a private run goes wrong — the process decides without ever
      covering a fresh register, or exhausts its step allowance — {e
      revise} history: back out the choice and replay from an earlier
      branch point (a different process order, the other coin outcome);
    + once [n − 1] processes are parked on pairwise distinct registers,
      release the block write.

    The resulting schedule is one real execution of the protocol writing
    at least [n − 1] distinct registers, so the certificate is
    self-evident: {!Ts_core.Theorem.verify}, the one claim check for both
    engines, replays it with {!Ts_model.Execution.apply} and counts, with
    no dependence on the valency oracle the first engine is built on.
    The two engines share no proof logic — which is what makes diffing
    their answers ([Ts_analysis.Crosscheck]) meaningful.  They share the
    substrate ({!Ts_model.Protocol}, [Config], [Execution],
    {!Ts_core.Budget}), Definition 2 ({!Ts_core.Covering}), the witness
    record and its claim check ({!Ts_core.Theorem.type-witness},
    {!Ts_core.Theorem.verify}) and {!Ts_core.Theorem}'s stopping
    decisions: the {!stop} and {!outcome} types, the escalation loop, the
    witness policy and the canonical inputs.

    Like the first engine, a capped run degrades to a structured
    {!Partial} rather than raising: {!construct} reports a tripped
    {!Ts_core.Budget} as [Out_of_budget] and a construction its
    private-run allowance cannot carry as a [Wall].

    Instrumentation: spans [revisionist.construct] (cat [revisionist])
    with revision/step counts as attributes; counters
    [revisionist.private_steps], [revisionist.revisions],
    [revisionist.parks], [revisionist.constructs], [revisionist.walls]
    (see docs/OBSERVABILITY.md). *)

open Ts_model

type pid = int

(** This engine's effort. *)
type effort = {
  revisions : int;  (** backed-out choice points *)
  private_steps : int;  (** total solo steps simulated, failed branches included *)
}

(** Everything the construction established, as the witness record both
    engines share.  [schedule] is the full witness — the private
    segments in parking order followed by the release block write — and
    [trace] its trace from the canonical initial configuration
    ({!Ts_core.Theorem.canonical_inputs}).  [covered_registers] are the
    registers covered when the last process parked (all parked but the
    last), and [fresh_register] is the last-parked register. *)
type certificate = effort Ts_core.Theorem.witness

(** [parked w] is who was parked covering what, in parking order, read
    off the release: the last [n − 1] steps of [w]'s trace, each the
    pending write of one parked process.  {!Ts_core.Theorem.verify}
    checks that trace against a replay, so a verified witness's parked
    list is what its schedule does. *)
val parked : certificate -> (pid * Action.reg) list

(** How far a stopped construction got. *)
type progress = {
  max_solo : int;  (** the per-process private-run step allowance in force *)
  parked : int;  (** deepest parking level reached *)
  revisions : int;
  private_steps : int;
}

(** {!Ts_core.Theorem.stop}, re-exported: [Wall] means every revision of
    the parking order failed within [max_solo] private steps per
    process; retry with a larger allowance. *)
type stop = Ts_core.Theorem.stop =
  | Out_of_budget of Ts_core.Budget.breach
  | Wall of string

(** {!Ts_core.Theorem.outcome}, re-exported; this engine's outcomes are
    [(certificate, progress) outcome]. *)
type ('c, 'p) outcome = ('c, 'p) Ts_core.Theorem.outcome =
  | Complete of 'c
  | Partial of stop * 'p

(** [construct ?budget ?max_solo proto] runs the revisionist adversary
    from the canonical initial configuration and parks [n − 1]
    processes.  [max_solo] (default 64) bounds each private run;
    [budget] (default unlimited) is charged one node per simulated
    private step.
    @raise Invalid_argument if the protocol has fewer than 2 processes. *)
val construct :
  ?budget:Ts_core.Budget.t ->
  ?max_solo:int ->
  's Protocol.t ->
  (certificate, progress) outcome

(** [escalate ?budget ?retries proto ~initial_solo] is
    {!Ts_core.Theorem.escalate} over {!construct}: on a [Wall] the
    private-run allowance doubles up to [retries] times (default 4).
    [budget] spans all attempts.  Returns the outcome and the last
    allowance tried. *)
val escalate :
  ?budget:Ts_core.Budget.t ->
  ?retries:int ->
  's Protocol.t ->
  initial_solo:int ->
  (certificate, progress) outcome * int

(** [witness ?budget ?max_solo proto] is {!Ts_core.Theorem.policy} over
    {!construct}, the sibling of {!Ts_core.Theorem.val-witness}: an explicit
    [max_solo] is one {!construct} at exactly that private-run allowance,
    and without one the allowance escalates from [10 * n].  Returns the
    outcome and the allowance it came from. *)
val witness :
  ?budget:Ts_core.Budget.t ->
  ?max_solo:int ->
  's Protocol.t ->
  (certificate, progress) outcome * int

val pp_certificate : Format.formatter -> certificate -> unit

(** {!Ts_core.Theorem.pp_stop}. *)
val pp_stop : Format.formatter -> stop -> unit
val pp_progress : Format.formatter -> progress -> unit
