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

(** [iter_successors proto cfg ps f] calls [f e cfg'] once for every step
    [e] a member of [ps] can take from [cfg], with [cfg'] its result.
    Members step in increasing pid order, each over {!coins} of its
    poised action (a flip yields coin [true], then [false]); a decided
    member yields nothing.  Exceptions from the protocol or from [f]
    propagate. *)
val iter_successors :
  's Protocol.t -> 's Config.t -> Pset.t -> (event -> 's Config.t -> unit) -> unit

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
