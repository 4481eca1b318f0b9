(** The Jayanti–Tan–Toueg covering adversary for perturbable objects.

    The JTT bound (SICOMP 2000; part I.1 of the lecture bundle) says any
    nonblocking implementation of a perturbable object — counter, snapshot,
    max-register, ... — from historyless primitives uses at least [n − 1]
    registers, and a deterministic one also needs [n − 1] solo steps.  The
    proof drives the implementation into configurations where more and more
    processes cover distinct registers, hiding the covered writes of others
    behind block writes.

    This module executes that construction against a concrete
    implementation and reports the measurable content of the proof:

    - {b covering}: processes [p_1 ... p_{n-1}] can each be parked on a
      write to a fresh register ([distinct_covered = n − 1]);
    - {b hiding}: a perturbing operation stopped just before its first
      fresh write is invisible to the prober once the covering processes
      perform their block write ([hidden_invisible]);
    - {b visibility}: the same operation run to completion *is* visible
      despite the block write, because its fresh write survives
      ([completed_visible]);
    - {b probe cost}: the prober's operation accesses at least the covered
      registers ([probe_accesses]), giving the solo-step measurement.

    The adversary is generic in the implementation; it only needs a
    perturbing operation and a probing operation whose result the
    perturbation must change. *)

open Ts_model

type report = {
  object_name : string;
  n : int;
  cover : (int * Action.reg) list;  (** covering process, covered register *)
  distinct_covered : int;
  probe_accesses : int;  (** distinct registers the probe accessed *)
  probe_steps : int;  (** steps of the probe operation *)
  base_probe : Value.t;  (** probe result after the block write only *)
  hidden_probe : Value.t;  (** ... with a truncated perturbation inserted *)
  completed_probe : Value.t;  (** ... with a completed perturbation inserted *)
  hidden_invisible : bool;  (** [hidden_probe = base_probe] *)
  completed_visible : bool;  (** [completed_probe <> base_probe] *)
  jtt_bound : int;  (** n − 1 *)
}

(** [run impl ~perturb ~probe] executes the construction.  [perturb] is the
    operation the covering/perturbing processes issue; [probe] the one the
    last process measures with.
    @raise Invalid_argument if [impl.num_processes < 2], or if a process
    cannot be parked on a fresh write within an internal budget (the
    implementation would then not be perturbable this way). *)
val run : ('s, 'op) Impl.t -> perturb:'op -> probe:'op -> report

(** The construction specialized to the shipped objects. *)
val run_counter : n:int -> report

val run_maxreg : n:int -> report
val run_snapshot : n:int -> report
val pp_report : Format.formatter -> report -> unit
