(** The refined valency oracle (Zhu, Definition 1 and Proposition 1).

    [P can decide v from C] iff there is a P-only execution from [C] in
    which [v] is decided.  [P] is bivalent from [C] if it can decide both 0
    and 1, and v-univalent if it can decide [v] but not [1-v].

    Exact valency is undecidable in general — the P-only reachable set of a
    protocol like racing counters is infinite — so the oracle searches up to
    a configurable [horizon] of steps.  Consequences, which the rest of the
    engine is built around:

    - a positive answer ([can_decide = Some w]) is always sound: [w] is a
      real P-only execution of the protocol deciding [v];
    - a negative answer means "not within [horizon] steps" and can
      misclassify a bivalent set as univalent if the horizon is too small.
      Every construction in {!Lemmas} and {!Theorem} therefore re-verifies
      its conclusion with positive witnesses, and raises
      {!Horizon_exceeded} instead of returning an unverified result.

    Coin flips ([Action.Flip]) are resolved nondeterministically — both
    outcomes are explored — which matches Zhu's "nondeterministic solo
    terminating" protocol class.

    {b One search.}  Every search of the oracle is one
    {!Ts_model.Execution.bfs} with the horizon as its depth bound, so it
    skips the successors the commuting-step rule proves already visited;
    the soundness argument is in execution.mli.  The FIFO order, every
    witness, [nodes_expanded] and [peak_frontier] are the unpruned
    search's.  {!successors_within} is the unpruned relation. *)

open Ts_model

type 's t
(** A memoizing oracle for one protocol instance. *)

exception Horizon_exceeded of string
(** Raised by engine components when a bounded-search answer could not be
    verified; retry with a larger horizon. *)

(** [create ?budget proto ~horizon] builds an oracle.  All visited/memo
    tables key by packed configurations ({!Ts_model.Ckey}).  Every search
    charges [budget] (default {!Budget.unlimited}) one node per dequeued
    configuration — once per node for {!classify}'s joint search, not once
    per probe — and raises {!Budget.Exhausted} when it trips; the
    outcome-returning wrappers in {!Theorem} catch that and report a
    partial result. *)
val create : ?budget:Budget.t -> 's Protocol.t -> horizon:int -> 's t

val protocol : 's t -> 's Protocol.t
val horizon : 's t -> int

(** The resource guard this oracle charges. *)
val budget : 's t -> Budget.t

(** [can_decide t cfg ps v] is a P-only schedule from [cfg] after which [v]
    is decided, if the bounded search finds one.  A configuration in which
    some process has already decided [v] yields [Some []]. *)
val can_decide : 's t -> 's Config.t -> Pset.t -> Value.t -> Execution.event list option

(** Binary-consensus classification of [ps] from [cfg]. *)
type verdict =
  | Bivalent of Execution.event list * Execution.event list
      (** witnesses deciding 0 and 1 respectively *)
  | Univalent of Value.t * Execution.event list
      (** can decide only this value (within horizon) *)
  | Blocked  (** can decide neither within horizon *)

(** [classify t cfg ps] answers both probes.  When both miss the memo
    table they share one breadth-first search that stops once it has
    dequeued a decider of each value (or exhausted the frontier); each
    witness is the one {!can_decide} alone returns, and the search
    dequeues the max, not the sum, of the two probes' node counts. *)
val classify : 's t -> 's Config.t -> Pset.t -> verdict

(** [decides t cfg ps v] is [can_decide t cfg ps v <> None], answered
    without a [ps]-wide witness where it can be.  Definition 1 is monotone
    in P: a Q-only execution is also a P-only one for every Q ⊆ P.  The
    search is complete up to the horizon, so a member's solo witness (of
    length at most the horizon) is one the [ps]-wide search would also
    find.  The answer therefore comes from the exact memo entry first,
    then from each member's memoized solo probe [can_decide t cfg {p} v],
    and the [ps]-wide search runs only when no member decides alone.  A
    positive answer found this way memoizes nothing under [ps]'s own key,
    so a later {!can_decide} still returns the minimal [ps]-wide witness. *)
val decides : 's t -> 's Config.t -> Pset.t -> Value.t -> bool

(** [is_bivalent t cfg ps] is [true] iff {!classify} would say
    [Bivalent], answered in the steps of {!decides} for each value: a
    value still unwitnessed after the memo and the members' solo probes
    costs one [ps]-wide search, and when both are, they share one joint
    search, as in {!classify}. *)
val is_bivalent : 's t -> 's Config.t -> Pset.t -> bool

(** [univalent_value t cfg ps] is [Some v] if [ps] is v-univalent (within
    horizon) from [cfg]. *)
val univalent_value : 's t -> 's Config.t -> Pset.t -> Value.t option

(** Number of BFS searches actually run: one per {!can_decide} memo miss,
    one per {!classify} call with any probe missing, and for {!decides}
    and {!is_bivalent} one per members' solo probe that misses the memo
    plus at most one [ps]-wide search. *)
val searches : 's t -> int

(** Cumulative search-engine counters of this oracle. *)
type stats = {
  searches : int;  (** BFS searches actually run (see {!searches}) *)
  nodes_expanded : int;  (** configurations dequeued across all searches *)
  memo_hits : int;
  memo_misses : int;
  peak_frontier : int;  (** high-water mark of any single search's queue *)
}

val stats : 's t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** [successors_within proto cfg ps] lists every P-only successor
    {!Ts_model.Execution.iter_successors} enumerates, in its order:
    members of [ps] ascending, a coin flip resolved heads before tails.
    Every search of this oracle expands a node through that one relation,
    skipping what the commuting-step rule proves visited; this list skips
    nothing.  The benchmark ledger's
    [micro.valency_successors_ns] row ([ledger/micro.ml]) calls this to
    time one node's expansion on its own, and the tests' reference BFSs
    (for [Explore] in [test/suite_checker.ml], for {!classify} in
    [test/suite_core.ml]) walk the graph through it. *)
val successors_within :
  's Protocol.t -> 's Config.t -> Pset.t -> (Execution.event * 's Config.t) list

(** The two binary decision values, [Value.int 0] and [Value.int 1]. *)
val zero : Value.t

(** See {!zero}. *)
val one : Value.t
