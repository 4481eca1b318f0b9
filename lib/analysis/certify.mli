(** The certificate checks behind the registry gate ([Analyze.gate]).

    The gate hands over the witnesses it found on one entry — property
    violations from its searches, both engines' space-bound certificates
    from its two-engine comparison — and {!check} demands that every one
    passes {e both} independent checks ({!Ts_microcheck.Microcheck} and
    the engine-side {!Ts_cert.Cert.validate}) while every mutated variant
    is rejected by the micro-checker.  The four mutants are a single
    flipped byte, the schedule's first step reattributed to another
    process (a phantom step when the schedule is empty) with a forged
    digest, the claim rewritten wholesale with a forged digest, and a
    zeroed digest. *)

type report = {
  witnesses : int;  (** certificates checked *)
  validated : int;  (** accepted by micro-checker + engine replay *)
  tampers : int;  (** mutants generated *)
  tampers_rejected : int;
  errors : string list;
  checker_ns : int64;  (** total micro-checker time, wall clock *)
}

(** [check proto certs] checks each [(what, certificate)] pair of
    [proto]'s witnesses; [what] names the witness in error messages. *)
val check : 's Ts_model.Protocol.t -> (string * Ts_cert.Cert.t) list -> report

(** Every witness validated and every mutant rejected. *)
val ok : report -> bool
