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

    The valency oracle's searches, the checker's outer search and its
    probes, and the valency graph enumerate successors through
    {!iter_successors} (the first two through {!bfs}), so they walk one
    transition relation.  Three walks step on their own: [Lint] and
    [Determinism] step each poised process through {!Config.step} and its
    {!coins}, so that they can report a transition that raises, and the
    mutex covering search steps lock algorithms, which are not protocols. *)

(** [coins act] is the coin outcomes of a step poised at [act], in
    enumeration order: [[Some true; Some false]] for a flip, [[None]]
    otherwise. *)
val coins : Action.t -> bool option list

(** [iter_successors proto cfg ps f] calls [f e cfg'] for every step [e]
    a member of [ps] can take from [cfg], with [cfg'] its result.  Members
    step in increasing pid order, each over {!coins} of its poised action
    (a flip yields coin [true], then [false]); a decided member yields
    nothing.  Exceptions from the protocol or from [f] propagate. *)
val iter_successors :
  's Protocol.t -> 's Config.t -> Pset.t -> (event -> 's Config.t -> unit) -> unit

(** {2 The pruned breadth-first search}

    {!bfs} is the one breadth-first search over configurations with a
    visited table of whole packed configurations: the valency oracle's
    and the checker's outer search.  It expands nodes in FIFO order, each
    through the step relation of {!iter_successors}, and skips every
    successor it has provably generated before (Godefroid's sleep sets,
    restricted to a node's arrival step).

    {b The commuting-step rule.}  Let node X be first reached from node P
    by member p's step a, and let member q < p be poised at b in X, with
    [Action.commute a b].  Then X·b is already in the visited table when
    X is expanded:

    - q's state is the same in P and in X, so P's expansion, in pid
      order, handled P·b before P·a: the node Y holding P·b was queued
      before X, and its depth is at most X's;
    - Y is therefore expanded before X.  The search applies its two
      bounds itself, and both spare Y whenever they spare X: the depth
      bound because Y's depth is at most X's, the node bound because
      fewer nodes were dequeued before Y.  A visit can only end the whole
      search, by returning [false] or raising, so nothing is expanded
      after it either;
    - p's state is the same in Y as in P, so p is poised at a in Y, and
      b writes no register a accesses.  So Y·a = P·b·a = P·a·b = X·b.

    If P skipped b, or Y skipped a, the same argument applied to that
    earlier expansion puts the configuration in the table: the claim
    holds by induction over expansion order.  A step that would raise is
    never skipped either: b raised at P's expansion first.  So the FIFO
    order, every visit and every count but [skipped] and [hits] are the
    unpruned search's; a skipped step is a table hit the rule proves.

    The rule is sound only for such a search.  A search that may leave a
    queued node unexpanded while expanding later ones (a probe whose memo
    prunes nodes) or that must emit every edge (the valency graph) walks
    {!iter_successors}, which skips nothing. *)

(** The work of one {!bfs}. *)
type counts = {
  nodes : int;  (** configurations dequeued *)
  deepest : int;  (** depth of the deepest configuration [charge] accepted *)
  peak_frontier : int;  (** high-water mark of the queue *)
  hits : int;  (** successors already in the visited table, skipped ones included *)
  misses : int;  (** configurations inserted, the root included *)
  skipped : int;  (** steps the commuting-step rule skipped (a flip counts two) *)
  truncated : bool;  (** some dequeued configuration went unexpanded for a bound *)
}

(** [bfs pk proto root ps ~max_depth ~max_nodes ~table_size ~loc ~charge
    ~visit] searches the configurations [ps]-only steps reach from [root].
    Each dequeued configuration is counted, then [charge ()] is called,
    then [visit cfg rev_sched] with [rev_sched] the reversed schedule that
    first reached [cfg] from [root].  Unless the visit returned [false],
    which ends the search, the configuration is expanded if its depth is
    below [max_depth] and fewer than [max_nodes] configurations, itself
    included, have been dequeued; otherwise it marks the search
    truncated.  The visited
    table, of [table_size] initial buckets, keys by [pk]'s packing and
    logs its accesses to the race detector under [Obs.fresh_loc loc].

    The result is the search's counts and the exception that stopped it,
    if [charge], [visit] or a protocol step raised; the counts then cover
    the work done before the raise. *)
val bfs :
  's Ckey.packer ->
  's Protocol.t ->
  's Config.t ->
  Pset.t ->
  max_depth:int ->
  max_nodes:int ->
  table_size:int ->
  loc:string ->
  charge:(unit -> unit) ->
  visit:('s Config.t -> event list -> bool) ->
  counts * exn option

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

val pp_trace : Format.formatter -> trace -> unit
