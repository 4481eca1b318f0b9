(** The gating certificate pass behind [tightspace analyze --certify].

    Harvests the engine's witnesses for every registry entry — both
    engines' space-bound certificates for the [Expect_agree] entries,
    taken from the two-engine comparison ({!Crosscheck.run_entry}, so CI
    certifies the witnesses [tightspace witness] and the daemon produce),
    property violations for the negative controls, a resilience violation
    for the crash control, a 1-agreement violation for the k-set
    protocol — and
    demands that every emitted certificate passes {e both} independent
    checks ({!Ts_microcheck.Microcheck} and the engine-side
    {!Ts_cert.Cert.validate}) while every mutated variant (byte flip,
    schedule truncation with a forged digest, verdict rewrite with a
    forged digest, digest zeroing) is rejected.

    Entries with no executable witness (the lint controls, or a clean
    protocol the two-engine gate does not expect to agree, such as
    multivalued) are recorded as skipped with a reason.  [report.ok] — every
    witness validated, every mutant rejected, at least one witness
    overall — is the CI gate. *)

type protocol_report = {
  name : string;
  witnesses : int;  (** certificates emitted for this protocol *)
  validated : int;  (** accepted by micro-checker + engine replay *)
  tampers : int;  (** mutants generated *)
  tampers_rejected : int;
  skipped : string option;  (** reason when no witness was attempted *)
  errors : string list;
  checker_ns : int64;  (** total micro-checker time, wall clock *)
  engine_ns : int64;  (** total witness-producing engine time *)
}

type report = { protocols : protocol_report list; ok : bool }

(** Run the pass over the whole registry.  [?domains] (default 1) fans
    the property searches out. *)
val run : ?domains:int -> unit -> report

val report_to_json : report -> Json.t
val pp_report : Format.formatter -> report -> unit
