(** Driving mutual-exclusion algorithms and charging their cost.

    {b Cost model} — the Fan–Lynch "state change cost model", a
    simplification of the cache-coherent model: every write (and swap) is
    charged 1; a read is charged 1 only if it returns a value different
    from the last value the process observed in that register (a cache
    miss / invalidation).  Re-reading an unchanged register while
    busy-waiting is free, exactly as local spinning is free in the CC
    model.

    {b Canonical executions} — each process enters the critical section
    exactly once.  Two drivers:

    - [serial ~order]: the adversary runs one process at a time through a
      whole passage, in the given permutation order.  This realizes any of
      the n! canonical CS orders — the executions the encoder/decoder
      argument quantifies over.
    - [contended]: all processes start their trying sections and are
      stepped round-robin until everyone got through; mutual exclusion is
      asserted at every entry.

    Both report total cost, total shared accesses, and the realized CS
    order. *)

(** One entry of an execution log: a process entering its trying section
    or taking a step (with its state-change charge). *)
type log_entry =
  | Started of int
  | Stepped of int * bool

type outcome = {
  algorithm : string;
  n : int;
  cs_order : int list;  (** processes in order of critical-section entry *)
  cost : int;  (** total state-change cost *)
  accesses : int;  (** total shared-memory accesses (incl. free re-reads) *)
  steps : int;  (** total steps including CS enter/exit transitions *)
  per_process_cost : int array;
  step_log : log_entry list;
      (** the full schedule; the raw material of the Fan–Lynch encoder *)
}

exception Mutual_exclusion_violated of int * int
(** Two processes simultaneously in the critical section. *)

exception No_progress of string
(** The round-robin driver span for too long without anyone entering. *)

(** [serial alg ~order] runs a canonical execution with passages in
    [order] (a permutation of [0..n-1]). *)
val serial : 's Algorithm.t -> order:int array -> outcome

(** [contended alg] starts every process and round-robins single steps
    until all are done; each process enters the critical section once.
    The realized CS order is whatever the algorithm's arbitration gives
    the round-robin schedule. *)
val contended : 's Algorithm.t -> outcome

(** {1 Low-level sessions}

    Step-by-step control, used by the Fan–Lynch decoder to replay an
    execution from its encoding and by tests. *)

type 's session

val session : 's Algorithm.t -> 's session

(** [start_proc s p] puts [p] at the top of its trying section. *)
val start_proc : 's session -> int -> unit

(** [active s p] holds iff [p] is between [start_proc] and its return to
    the remainder section. *)
val active : 's session -> int -> bool

val step_proc : 's session -> int -> [ `Continues | `Done ]

val session_outcome : 's session -> outcome
