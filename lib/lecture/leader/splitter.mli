(** The splitter (Lamport's fast-path mechanism; Moir–Anderson renaming).

    A one-shot object over two registers.  Of the [k >= 1] processes that
    complete [Split]:

    - at most one returns [Stop];
    - at most [k - 1] return [Right];
    - at most [k - 1] return [Down];
    - a process running alone returns [Stop].

    The splitter is the building block of the GHHW leader-election
    protocols the paper's introduction cites as evidence that weak leader
    election is provably cheaper than consensus ([O(log n)] registers vs
    this paper's [n - 1]).  It demonstrates sub-linear space for a weaker
    task: two registers serve any number of processes. *)

open Ts_model

type op = Split

(** [Split] returns [Value.Int 0] for Stop, [1] for Right, [2] for Down. *)

type outcome =
  | Stop
  | Right
  | Down

val outcome_of_value : Value.t -> outcome

type state

val make : n:int -> (state, op) Impl.t
