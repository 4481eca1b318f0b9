(** Zhu's Lemma 4 and Theorem 1, as witness-producing constructions.

    {!lemma4} builds, for a bivalent set [P], an execution leading to a
    "nice" configuration: a pair of processes still bivalent while the
    other [|P| - 2] processes cover pairwise distinct registers.
    {!theorem1} composes it with Lemmas 2 and 3 into a complete execution
    of the protocol under test in which at least [n - 1] distinct registers
    are written — the executable content of the n−1 space lower bound.

    All intermediate facts are re-verified; the final certificate is
    additionally checked by replaying the execution from the initial
    configuration and counting written registers directly on the trace. *)

open Ts_model

(** A "nice" configuration reached from some base configuration. *)
type 's nice = {
  alpha : Execution.event list;  (** the P-only execution from the base *)
  cfg : 's Config.t;  (** the configuration [C·alpha] *)
  q_pair : Pset.t;  (** two processes, bivalent from [cfg] *)
  cover : Pset.t;  (** [P − q_pair], covering distinct registers in [cfg] *)
}

(** [lemma4 t c p] — Zhu's Lemma 4 by induction on [|p|], including the
    pigeonhole argument over covered register sets and the hidden-write
    insertion of the process removed by Lemma 1.  Requires [|p| >= 2] and
    [p] bivalent from [c] (checked). *)
val lemma4 : 's Valency.t -> 's Config.t -> Pset.t -> 's nice

(** Everything {!theorem1} established, with the raw material to audit it. *)
type certificate = {
  protocol_name : string;
  n : int;  (** number of processes *)
  inputs : Value.t array;  (** the bivalent initial assignment used *)
  schedule : Execution.event list;  (** full witness schedule from the initial configuration *)
  trace : Execution.trace;  (** its trace *)
  registers_written : Action.reg list;  (** distinct registers written in [trace] *)
  covered_registers : Action.reg list;  (** the distinct registers covered at the final nice configuration *)
  fresh_register : Action.reg;  (** the uncovered register the Lemma-2 process was forced to write *)
  oracle_searches : int;  (** valency searches spent *)
}

(** [canonical_inputs n] is Proposition 2's bivalent initial assignment,
    the one both lower-bound engines, the daemon's [valency] op and the
    [dot] export start from: p1 has input 1, everyone else 0. *)
val canonical_inputs : int -> Value.t array

(** [theorem1 t] runs the whole construction from the canonical bivalent
    initial configuration ({!canonical_inputs}) and returns a certificate
    with [List.length registers_written >= n - 1].
    @raise Valency.Horizon_exceeded if the oracle horizon is too small.
    @raise Invalid_argument if the protocol has fewer than 2 processes. *)
val theorem1 : 's Valency.t -> certificate

(** How far a stopped construction got: the horizon it was using and the
    oracle work it had spent. *)
type progress = {
  horizon : int;
  searches : int;
  nodes_expanded : int;
}

(** Why a lower-bound construction stopped short of a certificate.  Both
    engines stop with this type: the revisionist engine
    ([Ts_revisionist.Revisionist]) re-exports it. *)
type stop =
  | Out_of_budget of Budget.breach  (** the {!Budget} guard tripped *)
  | Wall of string
      (** the step allowance could not carry a step: the oracle horizon
          here, the private-run allowance in the revisionist engine *)

(** A construction's outcome: a certificate ['c], or the stop and the
    engine's own progress record ['p]. *)
type ('c, 'p) outcome =
  | Complete of 'c
  | Partial of stop * 'p

(** [theorem1_outcome t] is {!theorem1} with structured degradation: a
    tripped {!Budget} or an exhausted horizon yields [Partial] instead of
    an exception (and, while tracing is armed, a ["log.info"]
    {!Ts_obs.Obs.instant} naming the stop).  [Invalid_argument] (caller
    errors) still raises. *)
val theorem1_outcome : 's Valency.t -> (certificate, progress) outcome

(** [escalate ?retries ~initial attempt] is the one escalation loop:
    it runs [attempt initial], and on a [Wall] doubles the allowance
    (geometric backoff, a fresh attempt each time) up to [retries] times
    (default 4).  A budget lives in [attempt], so it spans every attempt
    and a breach ends the loop.  While tracing is armed each doubling
    emits a ["log.info"] instant
    ["horizon H insufficient (REASON); deepening to 2H"].  Returns the
    outcome and the last allowance tried.
    @raise Invalid_argument if [initial < 1] or [retries < 0]. *)
val escalate :
  ?retries:int -> initial:int -> (int -> ('c, 'p) outcome) -> ('c, 'p) outcome * int

(** [policy ?allowance ~n attempt] is the witness policy both engines
    share: an explicit [allowance] is a promise — one attempt at exactly
    that value — and without one the allowance escalates from [10 * n]
    ({!escalate} with its default retries).  Returns the outcome and the
    allowance it came from. *)
val policy :
  ?allowance:int -> n:int -> (int -> ('c, 'p) outcome) -> ('c, 'p) outcome * int

(** [theorem1_escalate ?budget ?retries proto ~initial_horizon] is
    {!escalate} over {!theorem1_outcome}, a fresh oracle per horizon.
    [budget] (default unlimited) spans all attempts. *)
val theorem1_escalate :
  ?budget:Budget.t ->
  ?retries:int ->
  's Protocol.t ->
  initial_horizon:int ->
  (certificate, progress) outcome * int

(** [witness ?budget ?horizon proto] is {!policy} over
    {!theorem1_outcome}, the Lemmas engine's witness for every caller
    (the CLI's [witness] and [trace], the daemon's [witness] op, the
    two-engine comparison).  [budget] (default unlimited) spans every
    attempt.  Returns the outcome and the horizon it came from. *)
val witness :
  ?budget:Budget.t -> ?horizon:int -> 's Protocol.t -> (certificate, progress) outcome * int

(** A stop, for either engine: a budget stop prints its breach, a wall
    ["horizon exhausted: REASON"]. *)
val pp_stop : Format.formatter -> stop -> unit
val pp_progress : Format.formatter -> progress -> unit

(** [verify cert proto] independently replays the certificate's schedule on
    a fresh initial configuration of [proto] and re-checks the register
    count.  Returns an error message on any mismatch. *)
val verify : certificate -> 's Protocol.t -> (unit, string) result

(** Human-readable rendering of a certificate: the space bound, the
    witness execution length and the registers it writes. *)
val pp_certificate : Format.formatter -> certificate -> unit
