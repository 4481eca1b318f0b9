(** Engine-independent outcome summaries.

    The repo now carries two independent lower-bound engines — the Lemma
    1–4 construction ({!Theorem}) and the revisionist-simulation engine
    ([Ts_revisionist.Revisionist]) — and the cross-validation layer
    ([Ts_analysis.Crosscheck]) needs to diff their answers without caring
    which machinery produced them.  A {!summary} is the common currency:
    the claimed register-count bound, the witness shape, and how much
    search the engine spent.  Each engine provides a converter into this
    type; {!agree} is the claim comparison inside
    [Ts_analysis.Crosscheck.compare_engines], the one place the two
    engines are compared. *)

open Ts_model

(** Which lower-bound engine produced a result. *)
type engine =
  | Lemmas  (** the Lemma 1–4 / Theorem 1 construction in {!Theorem} *)
  | Revisionist  (** the revisionist-simulation engine, [Ts_revisionist] *)

val engine_name : engine -> string

(** What an engine established, reduced to the comparable facts. *)
type summary = {
  engine : engine;
  protocol_name : string;
  n : int;  (** processes in the protocol instance *)
  excluded : int list;  (** processes the construction never schedules (crash plans); [[]] for both engines' fault-free runs *)
  bound : int;  (** claimed space lower bound: distinct registers the witness writes *)
  registers_written : Action.reg list;  (** distinct registers the witness trace writes, sorted *)
  schedule_length : int;
  search_effort : int;  (** engine-specific work counter: oracle searches (lemmas) or revisions (revisionist) *)
}

(** Summarize a Theorem-1 certificate. *)
val of_theorem : Theorem.certificate -> summary

(** [agree a b] is [Ok bound] when the two summaries make the same claim
    about the same protocol instance: equal protocol name, [n], excluded
    set and bound, with each witness writing at least [bound] distinct
    registers.  Any mismatch yields a human-readable divergence reason.
    Witness {e schedules} are allowed to differ — the engines construct
    different executions — so only the claims are compared. *)
val agree : summary -> summary -> (int, string) result

val pp_summary : Format.formatter -> summary -> unit
