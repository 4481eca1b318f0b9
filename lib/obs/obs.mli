(** The engine's observability core: one event model for profiling spans,
    typed metrics, engine-log instants and the race detector's memory
    access log.

    Every instrumented layer — the valency oracle, the lemma and theorem
    constructions, the checker's reachability searches, the simulator, the
    domain fan-out — reports into the single global collector defined
    here.  Three independent {e interests} can be armed:

    - {b spans} ({!start_tracing}): hierarchical begin/end intervals with
      parent links, per-domain attribution and structured attributes;
      drained as {!event} lists and exported by {!Export} as phase-summary
      tables or Chrome [trace_event] JSON;
    - {b metrics} ({!Metrics.start}): named counters, gauges and
      histograms, snapshotted and printed by the bench harness and the
      CLI's [--metrics] flags;
    - {b accesses} ({!start_accesses}): the shared-memory access and
      fork/join events the vector-clock race detector consumes.

    All three share one event stream, so the analysis gate and the
    profiler consume the same model; draining one interest never discards
    another's buffered events.

    {b Cost discipline.}  Disarmed, every instrumentation point is one
    atomic load and {e allocates nothing}: {!enter} returns the static
    {!null_span}, {!close} and the attribute setters test the span id and
    return, {!Metrics.incr} tests the armed bit and returns.  A traced run
    must therefore be observationally identical to an untraced one —
    [test/suite_obs.ml] proves this differentially on the theorem and
    checker engines.  The one caveat: passing a {e computed} [float] to
    {!Metrics.observe_ms} boxes it at the call site even when disarmed, so
    float-valued call sites should guard with {!Metrics.armed}.

    Armed, events are appended to a mutex-protected buffer; any domain may
    record, which is what makes the per-domain fan-out spans of
    [Ts_model.Par] visible.  A span must be closed on the domain that
    entered it (the implicit parent stack is domain-local). *)

(** A structured span attribute value. *)
type attr =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

(** Memory-access kinds, for the race detector. *)
type kind =
  | Read
  | Write

(** The unified event stream.  Spans and instants carry wall-clock
    timestamps (seconds, [Unix.gettimeofday]); access and task events are
    untimed — the race detector needs only their order. *)
type event =
  | Span_open of {
      id : int;  (** process-unique span id *)
      parent : int;  (** enclosing span id on the same domain, or [-1] *)
      domain : int;  (** id of the domain that entered the span *)
      name : string;  (** e.g. ["lemma4"], ["valency.search"] *)
      cat : string;  (** coarse grouping, e.g. ["lemma"], ["explore"] *)
      t : float;  (** entry timestamp *)
    }
  | Span_close of {
      id : int;  (** id of the matching {!Span_open} *)
      t : float;  (** exit timestamp *)
      attrs : (string * attr) list;  (** attributes set during the span *)
    }
  | Instant of {
      domain : int;
      name : string;  (** the payload, e.g. an engine-log line *)
      cat : string;  (** e.g. ["log.info"] *)
      t : float;
    }
  | Access of { domain : int; loc : string; kind : kind; atomic : bool }
      (** A shared-memory access by [domain] at interned location [loc];
          accesses via [Atomic] never race with each other. *)
  | Fork of { parent : int; token : int }
      (** The parent domain is about to spawn task [token]. *)
  | Begin of { child : int; token : int }
      (** First event of the spawned task: inherits the parent's clock. *)
  | End of { child : int; token : int }
      (** Last event of the spawned task. *)
  | Join of { parent : int; token : int }
      (** The parent has joined task [token]: absorbs the child's clock. *)

(** {1 Spans} *)

type span
(** A handle to an open interval; attributes accumulate on it until
    {!close}.  Obtained from {!enter}; when tracing is disarmed every
    handle is the shared {!null_span} and all operations on it are
    no-ops. *)

(** The inert span: closing it or setting attributes on it does nothing.
    This is what {!enter} returns while tracing is disarmed. *)
val null_span : span

(** Whether span tracing is currently armed. *)
val tracing : unit -> bool

(** Arm span tracing, discarding previously buffered span/instant events
    (access events are untouched). *)
val start_tracing : unit -> unit

(** Disarm span tracing and drain the buffered span/instant events, oldest
    first.  Access events stay buffered for {!stop_accesses}. *)
val stop_tracing : unit -> event list

(** [enter ?cat name] opens a span on the calling domain.  The parent link
    is the innermost span currently open on this domain.  [cat] defaults
    to ["engine"]. *)
val enter : ?cat:string -> string -> span

(** [close sp] records the span's end.  Must run on the domain that
    entered it.  Closing {!null_span} is a no-op. *)
val close : span -> unit

(** [with_span ?cat name f] is [f sp] bracketed by {!enter}/{!close},
    closing on exceptions too.  Note the closure argument allocates at the
    call site even when disarmed — use explicit {!enter}/{!close} on hot
    paths. *)
val with_span : ?cat:string -> string -> (span -> 'a) -> 'a

(** [set_int sp k v] attaches attribute [k = v] to the span.  No-op (and
    allocation-free) on {!null_span}. *)
val set_int : span -> string -> int -> unit

val set_bool : span -> string -> bool -> unit
val set_str : span -> string -> string -> unit

(** [instant ?cat name] records a zero-duration event (engine-log lines
    use [cat "log.<level>"]).  No-op while tracing is disarmed. *)
val instant : ?cat:string -> string -> unit

(** {1 Metrics} *)

module Metrics : sig
  (** Typed counters, gauges and histograms, keyed by name.  The registry
      is global and mutex-protected; recording is a no-op (one atomic
      load) while disarmed. *)

  (** Histogram summary: observation count, sum, and range. *)
  type histo = {
    count : int;
    sum : float;
    min : float;
    max : float;
  }

  (** A point-in-time copy of the registry, each section sorted by name. *)
  type snapshot = {
    counters : (string * int) list;
    gauges : (string * int) list;
    histograms : (string * histo) list;
  }

  (** Whether metrics recording is armed.  Guard call sites that compute a
      float argument with this. *)
  val armed : unit -> bool

  (** Arm recording, clearing the registry. *)
  val start : unit -> unit

  (** Disarm recording and return the final snapshot. *)
  val stop : unit -> snapshot

  (** Copy the registry without disarming. *)
  val snapshot : unit -> snapshot

  (** [incr ?by name] adds [by] (default 1) to counter [name]. *)
  val incr : ?by:int -> string -> unit

  (** [gauge name v] sets gauge [name] to its latest value [v]. *)
  val gauge : string -> int -> unit

  (** [gauge_max name v] raises gauge [name] to [v] if [v] is larger —
      high-water marks (peak frontier, deepest configuration). *)
  val gauge_max : string -> int -> unit

  (** [observe_ms name v] adds an observation (milliseconds by
      convention) to histogram [name]. *)
  val observe_ms : string -> float -> unit

  val pp_snapshot : Format.formatter -> snapshot -> unit
end

(** {1 Memory-access log (race-detector feed)}

    The engine's shared-structure touch points ([Ts_model.Par],
    [Ts_model.Ckey], the checker's tables, [Ts_core.Budget],
    [Ts_core.Cache], the service's mailbox and store) log here; the
    vector-clock checker in [Ts_analysis.Race] consumes the drained
    events.  Tracing is a test/analysis harness, not a production
    profiler, and [start_accesses]/[stop_accesses] are not meant to run
    concurrently with each other. *)

(** Whether access tracing is currently armed. *)
val accesses : unit -> bool

(** Arm access tracing, discarding previously buffered access/task events
    (span events are untouched). *)
val start_accesses : unit -> unit

(** Disarm access tracing and drain the buffered access/task events,
    oldest first.  Span/instant events stay buffered for
    {!stop_tracing}. *)
val stop_accesses : unit -> event list

(** [access ~loc kind ~atomic] logs a shared-memory access by the calling
    domain.  No-op (one atomic load) when disarmed. *)
val access : loc:string -> kind -> atomic:bool -> unit

(** [fork ()] allocates a task token and logs the {!Fork} edge.  Tokens
    are allocated even when disarmed (an atomic bump is cheaper than
    branching at every fork site). *)
val fork : unit -> int

(** [begin_task t] / [end_task t] bracket the spawned task's body. *)
val begin_task : int -> unit

val end_task : int -> unit

(** [join t] logs that the calling domain has joined task [t]. *)
val join : int -> unit

(** [fresh_loc prefix] is a process-unique location name
    ["prefix#<id>"] while access tracing is armed, and just [prefix]
    while disarmed (so the disarmed engine allocates nothing per
    structure).  Give every independently-owned mutable structure its own
    location so distinct per-worker tables never alias in the race
    detector. *)
val fresh_loc : string -> string

(** Human-readable rendering of any unified-stream event. *)
val pp_event : Format.formatter -> event -> unit
