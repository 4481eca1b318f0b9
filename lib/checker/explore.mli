(** Bounded exhaustive exploration of a protocol's configuration graph.

    Verifies the three consensus properties on all configurations reachable
    within the given bounds:

    - {b Agreement}: no reachable configuration contains two different
      decisions.
    - {b Validity}: every decision is one of the inputs.
    - {b Solo termination}: from every reachable configuration, every
      undecided process has a solo execution that decides within
      [solo_budget] steps (for protocols with coin flips, some resolution
      of the coins decides — Zhu's "nondeterministic solo termination").

    {!check_t_resilient} verifies the crash-fault analogue: from every
    reachable configuration, crash-stopping {e any} set of at most [t]
    processes leaves the surviving group able to reach a decision on its
    own.  Crash-stop faults don't alter the configuration, so this is
    group-decidability of every survivor set; by monotonicity (a superset
    of a live group is live) only the maximal crash sets, [|F| = t], need
    checking.

    Exploration is exhaustive up to [max_configs] distinct configurations
    and [max_depth] steps {e per input vector}; racing-style protocols have
    infinite reachable sets under adversarial scheduling, so a clean run is
    a *bounded* guarantee — [stats.truncated] says whether a bound was hit.
    A reported violation is always a genuine counterexample, replayable
    from the returned schedule ({!replay} does exactly that).

    Each input vector's search is fully self-contained (its own visited
    table, probe memo and budget), which is what makes the optional
    [?domains] fan-out sound: with [domains > 1] the vectors are checked in
    parallel on separate OCaml domains and the results reassembled in input
    order, so verdict {e and} stats are identical to a serial run.  Failure
    semantics are the same at every domain count: the result is that of
    the first violating input vector, unless an earlier vector's search
    raised (a protocol callback that raises, say), in which case that
    exception propagates.  All tables key by packed configuration keys
    ({!Ts_model.Ckey}) rather than polymorphic hashing.

    All entry points accept a {!Ts_core.Budget} guard.  A search that trips
    the guard stops cleanly: the verdict covers what was explored,
    [stats.truncated] is set, and [result.stopped] records the breach —
    a {e partial} result rather than an exception or a hang.  The guard
    is charged once per configuration the outer search dequeues and once
    per node a solo/group probe dequeues.

    {b One step relation.}  Each input vector's outer search is one
    {!Ts_model.Execution.bfs} with every process a member, [max_depth] as
    its depth bound and [max_configs] as its node bound: in pid order and
    a flip heads before tails, which fixes the violation schedules and
    [stats].  It skips the successors the commuting-step rule proves
    already visited (the soundness argument is in execution.mli), and
    [stats.table_hits] counts each skipped step as a hit, so every
    violation schedule and [stats] field is the unpruned search's.  A
    probe walks {!Ts_model.Execution.iter_successors} with the group's
    members only and skips nothing: its memo answers or prunes dequeued
    nodes.  It keeps its own keys (the group projection below), tables
    and counters.

    {b Probe memo.}  Every solo/group-termination probe is a BFS over the
    configurations reachable by steps of the group's members alone.  The
    probes of one input vector's search share a memo of distance bounds,
    keyed by the probed node's projection onto the group
    ({!Ts_model.Ckey.pack_group}: the members' statuses plus the registers)
    and salted with the group's mask.  Soundness: a member's step reads
    only its own state and the registers, non-members never move during a
    probe, and the goal test (some member has decided) never looks at
    them.  So two nodes with the same projection have the same
    member-only successors up to the non-members, and the same distance to
    a member decision.  Each entry holds [lo] (no member decides within
    [lo] steps) and [hi] (some member decides within [hi] steps).  A node
    dequeued at depth [d] of a probe with budget [b] answers at once when
    [hi <= b - d] and is not expanded when [lo >= b - d].  A successful
    probe sets [hi] along the winner's parent chain.  A failed one sets
    [lo = b - d] on every node it dequeued, each of which lies [d] steps
    from a root that cannot decide within [b].  A probe stopped by the
    guard records nothing.  Probes return booleans, not witnesses, so the
    memo changes no verdict, violation schedule or [stats] field; it only
    cuts the nodes a probe dequeues (the [explore.probe_nodes] and
    [explore.probe_memo_hits] profiler counters).  No probe is answered
    whole from a cache, so [stats.solo_cache_hits] is always [0] and
    [stats.solo_cache_misses] counts the probes issued.  One caveat: a
    protocol whose step function raises may raise at fewer configurations
    than a plain per-probe BFS would, since answered and pruned nodes are
    not expanded.

    {b Probe roots.}  A probe settles its root before it builds a visited
    table or a queue: a decided member answers yes, a budget of 0 no, and
    a memo entry with [hi] or [lo] within the budget answers as it would
    at the root's dequeue.  Only an unsettled root starts a search, so
    the counters and the memo's contents are those of the search it
    replaces. *)

open Ts_model
open Ts_core

type violation =
  | Agreement_violation of { inputs : Value.t array; schedule : Execution.event list; values : Value.t list }
  | Validity_violation of { inputs : Value.t array; schedule : Execution.event list; value : Value.t }
  | Solo_stuck of { inputs : Value.t array; schedule : Execution.event list; pid : int }
  | Crash_stuck of {
      inputs : Value.t array;
      schedule : Execution.event list;
      crashed : int list;  (** the crash set [F], sorted *)
      survivors : int list;  (** the stuck survivor group, sorted *)
    }
      (** After running [schedule] from the initial configuration for
          [inputs], crash-stopping [crashed] leaves [survivors] unable to
          decide within the probe budget. *)

type stats = {
  configs_explored : int;
  truncated : bool;  (** true if max_configs, max_depth or the budget stopped a search *)
  deepest : int;  (** depth of the deepest configuration explored *)
  table_hits : int;
      (** successor already in a visited table, including the steps the
          commuting-step rule skips as provably visited *)
  table_misses : int;  (** fresh configurations inserted *)
  peak_frontier : int;  (** high-water mark of the BFS queue *)
  solo_cache_hits : int;
      (** always [0]: kept for the wire format.  Probes share work through
          the probe memo instead, which the profiler reports. *)
  solo_cache_misses : int;  (** solo/group-termination probes issued *)
}

type result = {
  verdict : (unit, violation) Stdlib.result;
  stats : stats;
  stopped : Budget.breach option;
      (** [Some b] if the {!Budget} guard stopped a search: the verdict is
          partial, covering only what was explored before the breach. *)
}

(** [check_consensus proto ~inputs_list ~max_configs ~max_depth ~solo_budget
    ~check_solo] explores from each initial input vector and reports the
    violation of the earliest violating vector, if any.  [?domains]
    (default 1) fans the vectors out over that many OCaml domains;
    [?budget] (default {!Budget.unlimited}) bounds the whole call. *)
val check_consensus :
  ?domains:int ->
  ?budget:Budget.t ->
  's Protocol.t ->
  inputs_list:Value.t array list ->
  max_configs:int ->
  max_depth:int ->
  solo_budget:int ->
  check_solo:bool ->
  result

(** [check_set_agreement ~k proto ...] is {!check_consensus} with agreement
    relaxed to k-set agreement: a configuration with more than [k] distinct
    decided values is an [Agreement_violation].  [check_consensus] is the
    [k = 1] case. *)
val check_set_agreement :
  ?domains:int ->
  ?budget:Budget.t ->
  k:int ->
  's Protocol.t ->
  inputs_list:Value.t array list ->
  max_configs:int ->
  max_depth:int ->
  solo_budget:int ->
  check_solo:bool ->
  result

(** [check_t_resilient ~t proto ~inputs_list ~max_configs ~max_depth
    ~solo_budget] verifies [t]-resilient termination: from every reachable
    configuration, for every crash set [F] with [|F| = t], the survivor
    group [all - F] can still decide within [solo_budget] steps.  A failure
    is a {!Crash_stuck} witness; {!replay} re-validates it independently.
    [t = 0] degenerates to joint termination of the full group;
    [t = n - 1] is wait-freedom of every solo survivor.
    @raise Invalid_argument unless [0 <= t <= n-1], or if [n > max_n]. *)
val check_t_resilient :
  ?domains:int ->
  ?budget:Budget.t ->
  t:int ->
  's Protocol.t ->
  inputs_list:Value.t array list ->
  max_configs:int ->
  max_depth:int ->
  solo_budget:int ->
  result

(** {2 Probes}

    The solo/group-termination probe behind every entry point, with its
    own memo, for callers outside a search. *)

type 's probes
(** A probe memo plus its packer and counters.  Not thread-safe. *)

val probes : 's Protocol.t -> 's probes

(** [group_can_decide t cfg ps ~budget] holds iff, with only the members
    of [ps] taking steps from [cfg], some member of [ps] can decide within
    [budget] steps for some resolution of the coin flips.  Answers are
    exactly those of a fresh BFS per call; calls on one [t] share work. *)
val group_can_decide : 's probes -> 's Config.t -> Pset.t -> budget:int -> bool

(** [replay ~solo_budget proto v] independently re-validates a reported
    violation: re-applies its schedule step by step from the initial
    configuration (via {!Ts_model.Execution.apply}, i.e. [Config.step]
    folded) and re-checks the claimed property failure on the resulting
    configuration.  [solo_budget] bounds the re-run decidability probes
    for [Solo_stuck]/[Crash_stuck]; pass the budget the search that found
    [v] ran with, since a stuck claim holds only relative to it.  [Ok ()]
    means the counterexample is genuine; [Error msg] says what failed to
    reproduce. *)
val replay :
  solo_budget:int -> 's Protocol.t -> violation -> (unit, string) Stdlib.result

(** All 2^n binary input vectors for [n] processes.
    @raise Invalid_argument if [n > max_n]. *)
val binary_inputs : int -> Value.t array list

(** The largest [n] (16) that {!binary_inputs} and {!check_t_resilient}
    accept.  Both build all 2^n input vectors or crash masks before any
    budget is first charged, so a larger [n] would exhaust memory before a
    deadline could stop it. *)
val max_n : int

(** [refuse_large_n n] raises [Invalid_argument], with a message that
    names {!max_n}, if [n > max_n]. *)
val refuse_large_n : int -> unit

(** Stable machine-readable tag of a violation's kind — ["agreement"],
    ["validity"], ["solo-termination"] or ["resilience"].  Part of the
    service wire vocabulary and the CLI [--json] output; keep the strings
    fixed. *)
val violation_kind : violation -> string

(** The input vector a violation was found under. *)
val violation_inputs : violation -> Value.t array

(** The violating schedule prefix. *)
val violation_schedule : violation -> Execution.event list

val pp_stats : Format.formatter -> stats -> unit
val pp_violation : Format.formatter -> violation -> unit
