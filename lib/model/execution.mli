(** Schedules, executions and traces.

    A schedule is a sequence of scheduled steps — a process id together with
    a coin outcome for the (rare) steps that are coin flips.  Applying a
    schedule to a configuration yields the resulting configuration and a
    trace recording the action each step performed (Zhu §2: "a sequence of
    steps applicable at a configuration"). *)

type pid = int

type event = {
  pid : pid;
  coin : bool option;  (** [Some b] iff this step is a coin flip resolved to [b] *)
}

val ev : pid -> event
(** [ev p] is a non-flip step by [p]. *)

val flip : pid -> bool -> event
(** [flip p b] is a coin-flip step by [p] resolved to [b]. *)

type step_record = {
  actor : pid;
  action : Action.t;
  coin_used : bool option;
}

type trace = step_record list

(** [apply proto cfg sched] applies the steps of [sched] in order.
    @raise Invalid_argument if a scheduled process has already decided, or
    if a coin annotation does not match the step kind. *)
val apply : 's Protocol.t -> 's Config.t -> event list -> 's Config.t * trace

(** [apply_trace proto cfg tr] replays the schedule underlying [tr]. *)
val apply_trace : 's Protocol.t -> 's Config.t -> trace -> 's Config.t * trace

(** Distinct registers written in a trace, sorted. *)
val written_registers : trace -> Action.reg list

(** Distinct registers read or written in a trace, sorted. *)
val accessed_registers : trace -> Action.reg list

(** The set of processes taking steps in a trace. *)
val participants : trace -> Pset.t

(** [schedule_of_trace tr] recovers the schedule that produced [tr]. *)
val schedule_of_trace : trace -> event list

(** {2 The step relation}

    Every configuration search (the valency oracle, the checker, the
    valency graph, the static analyzers) enumerates successors through
    {!iter_successors}, so they all walk one transition relation. *)

(** [coins act] is the coin outcomes of a step poised at [act], in
    enumeration order: [[Some true; Some false]] for a flip, [[None]]
    otherwise. *)
val coins : Action.t -> bool option list

(** {3 Arrival steps and the commuting-step rule}

    A breadth-first search that expands nodes in FIFO order and keeps a
    visited table of whole configurations can skip every successor it
    has provably generated before (Godefroid's sleep sets, restricted to
    a node's arrival step).  Let node X be first reached from node P by
    member p's step a, and let member q < p be poised at b in X, with
    [Action.commute a b].  Then X·b is already in the visited table when
    X is expanded:

    - q's state is the same in P and in X, so P's expansion, in pid
      order, handled P·b before P·a: the node Y holding P·b was queued
      before X, and its depth is at most X's;
    - Y is therefore expanded before X.  Every stop condition that
      spares Y (a depth or node bound, a found value, a violation, a
      tripped budget) also spares X, since those bounds only tighten
      along the FIFO order and a stopped search expands nothing more;
    - p's state is the same in Y as in P, so p is poised at a in Y, and
      b writes no register a accesses.  So Y·a = P·b·a = P·a·b = X·b.

    If P skipped b, or Y skipped a, the same argument applied to that
    earlier expansion puts the configuration in the table: the claim
    holds by induction over expansion order.  A step that would raise is
    never skipped either: b raised at P's expansion first.  The rule is
    sound only for such searches; one that may leave a queued node
    unexpanded while expanding later ones (a probe whose memo prunes
    nodes) or that must emit every edge (the valency graph) passes
    {!root}. *)

(** The arrival step of a node no step reached — a search's root.
    Nothing is skipped after it. *)
val root : int

(** [iter_successors proto cfg ps ~after f] calls [f e step cfg'] for
    every step [e] a member of [ps] can take from [cfg] and that the
    commuting-step rule does not skip, with [cfg'] its result and [step]
    its arrival step (an immediate int packing [e]'s pid and the
    {!Action.footprint} of the action taken), which the caller stores
    with [cfg'] and passes as [~after] when it expands [cfg'].  Members
    step in increasing pid order, each over {!coins} of its poised action
    (a flip yields coin [true], then [false]); a decided member yields
    nothing.

    [after] is the arrival step by which the search first reached [cfg]
    with this same [ps], or {!root}.  Each member below [after]'s pid
    whose step commutes with [after]'s action is skipped, and the result
    is the number of steps skipped (a skipped flip counts two).  With
    [~after:root] nothing is skipped and the result is 0: that is the
    whole relation.  Exceptions from the protocol or from [f]
    propagate. *)
val iter_successors :
  's Protocol.t ->
  's Config.t ->
  Pset.t ->
  after:int ->
  (event -> int -> 's Config.t -> unit) ->
  int

(** [solo proto cfg p ~flips ~budget] runs [p] alone until it decides or the
    step budget is exhausted, resolving the [i]-th coin flip with
    [flips i].  Returns the final configuration, the trace, and the decision
    if one was reached. *)
val solo :
  's Protocol.t ->
  's Config.t ->
  pid ->
  flips:(int -> bool) ->
  budget:int ->
  's Config.t * trace * Value.t option

val pp_event : Format.formatter -> event -> unit
val pp_step : Format.formatter -> step_record -> unit
val pp_trace : Format.formatter -> trace -> unit
