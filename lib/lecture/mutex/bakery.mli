(** Lamport's bakery algorithm.

    The classic first-come-first-served mutex from registers: a process
    takes a ticket one larger than every ticket it sees, then waits until
    no process with a smaller (ticket, id) pair is choosing or waiting.
    Tickets grow without bound — the paper's model allows unbounded
    registers, and the bakery is the canonical beneficiary.

    Registers: [choosing[0..n-1]] then [ticket[0..n-1]].

    Besides mutual exclusion, the bakery is FIFO with respect to the
    doorway: if p finishes taking its ticket before q starts taking its
    own, p enters the critical section first — the fairness property the
    test suite checks under contention.  Cost in the state-change model is
    Θ(n) charged accesses per passage (every passage rescans the other
    processes' tickets), so canonical executions cost Θ(n²): above the
    arbitration tree, below Peterson's filter. *)

type state

val make : n:int -> state Algorithm.t
