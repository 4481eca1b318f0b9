(** Covering sets and block writes (Zhu, Definition 2).  This module is
    the definition's one home, for both lower-bound engines.

    A process covers a register when it is poised to write it; a block
    write by a covering set [R] is an execution in which each process of
    [R] performs exactly its pending write.  When every process of [R]
    covers a *different* register the order of the block write is
    irrelevant; we fix ascending pid order. *)

open Ts_model

(** [covers proto cfg p] is [Some r] iff [p] is poised to write (or swap)
    register [r] in [cfg]: [p] covers [r]. *)
val covers : 's Protocol.t -> 's Config.t -> Config.pid -> Action.reg option

(** [covered_set proto cfg r_set] is the sorted distinct registers covered
    by [r_set] (processes not poised to write contribute nothing). *)
val covered_set : 's Protocol.t -> 's Config.t -> Pset.t -> Action.reg list

(** [is_covering proto cfg r_set] holds iff every process of [r_set] is
    poised to write. *)
val is_covering : 's Protocol.t -> 's Config.t -> Pset.t -> bool

(** [well_spread proto cfg r_set] holds iff [r_set] is covering and covers
    pairwise distinct registers. *)
val well_spread : 's Protocol.t -> 's Config.t -> Pset.t -> bool

(** [block_write r_set] is the schedule performing the block write by
    [r_set] in ascending pid order.  The empty set gives the empty
    schedule (the proofs treat [R = ∅] as a valid covering set). *)
val block_write : Pset.t -> Execution.event list
