(** Engine race detector: a vector-clock (epoch/lockset-style) checker
    over the {!Ts_obs.Obs} access log.

    The parallel search's safety argument is "workers share nothing
    mutable except the budget atomics".  When tracing is armed, the
    engine's shared-structure touch points ({!Ts_model.Par} reassembly,
    {!Ts_model.Ckey} packers, the checker's visited/solo tables,
    {!Ts_core.Budget} counters) log access events plus fork/join edges;
    this module replays the log with one vector clock per domain
    (fork/begin and end/join edges transfer clocks, FastTrack-style merged
    epochs per location) and reports every pair of conflicting accesses —
    at least one write, not both atomic — that are not ordered by
    happens-before.

    [certify_engine] runs an instrumented domain-parallel consensus search
    and must come back race-free; [planted] runs a deliberately racy
    fan-out (two domains bumping one plain ref) and must not. *)

type access = {
  domain : int;
  loc : string;
  kind : Ts_obs.Obs.kind;
  atomic : bool;
  index : int;  (** position in the event log, for reporting *)
}

type race = {
  loc : string;
  first : access;  (** the earlier access of the unordered conflicting pair *)
  second : access;
}

type report = {
  events : int;  (** total events checked *)
  accesses : int;  (** access events among them *)
  locations : int;  (** distinct locations touched *)
  domains : int;  (** distinct domains seen *)
  races : race list;  (** at most one reported race per location *)
}

(** [check events] replays a drained {!Ts_obs.Obs.stop_accesses} log
    through the vector-clock checker. *)
val check : Ts_obs.Obs.event list -> report

val race_free : report -> bool

(** Run {!Ts_checker.Explore.check_consensus} on the racing protocol over
    [domains] domains (default 4) with tracing armed, and check the log.
    This is the shipped-workload certificate. *)
val certify_engine : ?domains:int -> unit -> report

(** The planted-race fixture: fan a plain (non-atomic) read-modify-write
    counter out over [domains] domains (default 2) through {!Ts_model.Par}
    with tracing armed.  The checker must report a race on
    ["planted.cell"] — a detector that cannot catch this certifies
    nothing. *)
val planted : ?domains:int -> unit -> report

(** Machine-readable form of a race report.  A race is written as its
    location only: which pair of accesses the checker meets first, and
    where they sit in the log, varies with the scheduler, and
    {!pp_report} shows them. *)
val to_json : report -> Json.t

(** Human-readable rendering of a race report. *)
val pp_report : Format.formatter -> report -> unit
