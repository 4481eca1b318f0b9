(** The registry gate behind [tightspace analyze].

    {!gate} runs every check the repo makes of one registry entry
    ({!Registry}), each exactly once:

    + {!analyze}, the first stage: {!Lint} (abstract footprint lint over
      the bounded reachable space) and {!Determinism} (double-step /
      shadow-copy purity replay), then — only if neither reported an
      error — the bounded property search
      ({!Ts_checker.Explore.check_set_agreement} with the entry's [k]),
      its verdict rendered as findings.  Stepping a protocol whose
      footprint is illegal (e.g. an out-of-range write) or whose
      transitions are impure would fault the engines or make their
      answers meaningless, so this is the one rule for when a protocol may
      be stepped: the rest of the gate steps exactly what this stage
      stepped;
    + the extra searches the entry declares: [k = 1] for a k-set entry,
      t-resilience for an entry that declares [resilience];
    + one two-engine comparison ({!Crosscheck.compare_engines}, 15 s per
      engine);
    + {!Certify.check} over the violation certificates of those searches
      and, for [Expect_agree] entries, both engines' space-bound
      certificates from that comparison.

    A protocol is {e flagged} when the first stage emits an [Error].  An
    entry is {e ok} when flaggedness matches the registry's expectation,
    the comparison meets the entry's {!Registry.xcheck}, and every
    certificate validates while every mutant is rejected.  {!gate_all}
    adds the race-detector pair ({!Race.certify_engine}, {!Race.planted})
    and the registry drift check; [overall.ok] is the CI gate. *)

(** The first stage's result — what the daemon's [analyze] op serves. *)
type analysis = {
  entry : Registry.entry;
  findings : Finding.t list;  (** lint, determinism, property, in order *)
  summary : Lint.summary;
  flagged : bool;  (** some finding is an [Error] *)
  ok : bool;  (** [flagged = not entry.expect_clean] *)
  property : Ts_checker.Explore.result option;
      (** the property search; [None] when static errors kept the
          protocol from being stepped *)
}

(** One entry's gate report. *)
type report = {
  analysis : analysis;
  verdict : Crosscheck.verdict;
      (** the comparison's verdict; [Unavailable] naming the static
          errors when the protocol was not stepped *)
  certificates : Certify.report;
  skipped : string option;  (** why no certificate was checked *)
  engine_ns : int64;
      (** wall clock of the analyzer passes, searches and comparison —
          everything before the certificate checks *)
  ok : bool;
}

type overall = {
  reports : report list;
  engine : Race.report;  (** instrumented parallel search, must be race-free *)
  planted : Race.report;  (** planted-race fixture, must NOT be race-free *)
  unregistered : string list;
      (** protocols in {!Ts_protocols.Catalog} missing from the registry —
          drift that would let a new protocol dodge the gate; gating *)
  ok : bool;
      (** every entry ok, at least one comparison agreed, at least one
          witness certified, the engine race-free, the planted race
          caught and no drift *)
}

(** [analyze entry] runs the first stage on one registry entry.
    [?domains] (default 1) fans the property search's input vectors out. *)
val analyze : ?domains:int -> Registry.entry -> analysis

(** [gate entry] runs the whole gate on one registry entry. *)
val gate : ?domains:int -> Registry.entry -> report

(** [gate_all ()] gates every registry entry, plus the race-detector pair
    and the drift check.  [?domains] also sizes the instrumented engine
    certification. *)
val gate_all : ?domains:int -> unit -> overall

(** The first stage's document, as the daemon's [analyze] op serves it. *)
val analysis_to_json : analysis -> Json.t

(** One entry's gate document, as [tightspace analyze --protocol NAME
    --json] prints it; its ["analysis"] member is {!analysis_to_json}. *)
val report_to_json : report -> Json.t

(** The whole gate's document, as [tightspace analyze --all --json]
    prints it. *)
val overall_to_json : overall -> Json.t

val pp_report : Format.formatter -> report -> unit
val pp_overall : Format.formatter -> overall -> unit
