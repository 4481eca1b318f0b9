(** Deliberately incorrect protocols, used as negative controls.

    A verifier that never rejects anything verifies nothing: these
    protocols each violate exactly one consensus property, and the test
    suite asserts that the model checker (and, where applicable, the
    adversary engine's premise checks) catch them. *)

type state

(** First write wins... except it doesn't: each process writes its input to
    register 0, reads it back, and decides what it read.  Violates
    agreement for n >= 2 (write/write/read/read interleaving). *)
val last_write_wins : n:int -> state Ts_model.Protocol.t

(** "Max racing" without rounds: scan all n registers; decide when all
    equal your preference; otherwise adopt the maximum value present and
    write it to the first disagreeing register.  Looks plausible, violates
    agreement: a decided 0 can be steamrolled by a late waker preferring 1.
    This is the protocol the racing-counters design notes reject. *)
val naive_max : n:int -> state Ts_model.Protocol.t

(** Decides the constant 7 regardless of inputs: violates validity. *)
val oblivious_seven : n:int -> state Ts_model.Protocol.t

(** The classic resilience counterexample: each process announces its input
    in its own slot, then scans all [n] slots — restarting whenever a slot
    is still empty — and decides the maximum once every slot is filled.
    Deterministic; satisfies agreement and validity, and the full group
    always terminates ([0]-resilient).  But it is not [1]-resilient: crash
    any one process before its announcing write and the survivors scan
    forever.  {!Ts_checker.Explore.check_t_resilient} finds the stuck
    witness at the initial configuration. *)
val wait_for_all : n:int -> state Ts_model.Protocol.t

(** Reads register 0 forever: violates (nondeterministic solo)
    termination. *)
val insomniac : n:int -> state Ts_model.Protocol.t

(** The two-engine crosscheck's planted divergence fixture: each process
    announces its input in its own register, then decides the
    {e complement} of it.  Every run terminates — so the static lint
    passes and both engines get to step it — but a solo run of [p]
    decides [1 - input], so this is not a consensus protocol.  The
    revisionist engine still parks every process on its own announcing
    write and claims the [n - 1] bound, while the Lemmas engine
    correctly refuses at Proposition 2 ([p] cannot decide its own input
    solo); the registry gate's two-engine comparison must flag exactly
    this disagreement ([Ts_analysis.Crosscheck], [tightspace analyze]). *)
val scribbler : n:int -> state Ts_model.Protocol.t

(** Declares a single register but is poised to write register 1 — outside
    the declared range.  The footprint lint's negative control: the stray
    write is caught {e statically} ({!Ts_analysis.Lint}), before any
    execution engine would crash on it. *)
val rogue_writer : n:int -> state Ts_model.Protocol.t
