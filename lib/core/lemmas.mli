(** Executable versions of Zhu's Lemmas 1–3.

    Each procedure follows the published proof step by step, using the
    {!Valency} oracle for the existential facts the proof asserts, and
    *re-verifies its own conclusion* before returning — a successful return
    is a machine-checked instance of the lemma on the protocol at hand.
    When the bounded oracle cannot support a step, the procedures raise
    {!Valency.Horizon_exceeded} rather than return anything unverified. *)

open Ts_model

(** Result of {!lemma1}: a P-only execution [phi] and a process [z] such
    that [P - {z}] is bivalent from [C·phi]. *)
type lemma1_result = {
  phi : Execution.event list;
  z : int;
}

(** [lemma1 t c p] — Zhu's Lemma 1.  Requires [|p| >= 3] and [p] bivalent
    from [c] (checked).  The search walks the prefixes of a witness
    execution exactly as in the proof, testing all candidate [z]. *)
val lemma1 : 's Valency.t -> 's Config.t -> Pset.t -> lemma1_result

(** [solo_deciding t c z] is a {z}-only schedule from [c] in which [z]
    decides — the "nondeterministic solo terminating" obligation.
    @raise Valency.Horizon_exceeded if none is found within horizon. *)
val solo_deciding : 's Valency.t -> 's Config.t -> int -> Execution.event list

(** [split_at_uncovered_write t c z ~covered ~zeta] applies the prefix of
    the {z}-only schedule [zeta] from [c] up to (excluding) the first write
    to a register outside [covered].  Returns the applied prefix, the
    resulting configuration and the register of the pending uncovered
    write.  This is the executable content of Lemma 2: for a correct
    protocol such a write must exist in every deciding solo execution.
    @raise Valency.Horizon_exceeded if [zeta] contains no such write. *)
val split_at_uncovered_write :
  's Valency.t ->
  's Config.t ->
  int ->
  covered:Action.reg list ->
  zeta:Execution.event list ->
  Execution.event list * 's Config.t * Action.reg

(** Result of {!lemma3}: a Q-only execution [phi] and a process [q] in [Q]
    such that [R ∪ {q}] is bivalent from [C·phi·β], where [β] is the block
    write by [R]. *)
type lemma3_result = {
  phi3 : Execution.event list;
  q : int;
  v_r : Value.t;  (** the value R can decide from C·β, as in the proof *)
}

(** [lemma3 t c ~p ~r] — Zhu's Lemma 3.  Requires [r] a non-empty covering
    set in [c], [r ⊆ p], and [Q = p − r] bivalent from [c] (checked). *)
val lemma3 : 's Valency.t -> 's Config.t -> p:Pset.t -> r:Pset.t -> lemma3_result

(** [apply_schedule t c sched] is [Execution.apply] under the oracle's
    protocol — convenience re-export. *)
val apply_schedule :
  's Valency.t -> 's Config.t -> Execution.event list -> 's Config.t * Execution.trace
