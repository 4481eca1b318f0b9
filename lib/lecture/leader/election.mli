(** Obstruction-free weak leader election by a tournament of 2-party
    consensus matches.

    Each internal node of a balanced binary tree hosts a 2-party
    racing-counters consensus (4 registers) between the winners of its two
    subtrees, who propose their own side; whoever's side is decided climbs
    on.  The process that wins the root is the unique leader; every other
    process learns it lost.  Obstruction-freedom is inherited from racing
    counters.

    Space is [4 (2^⌈log2 n⌉ - 1)] = O(n) registers, but a solo passage
    touches only the [O(log n)] registers on its root path — the
    space-adaptivity gap the paper's introduction contrasts with consensus:
    leader election is solvable in [O(log n)] registers (GHHW'15) while
    consensus provably needs [n − 1].  Our implementation is the simple
    O(n) upper bound; the cited [O(log n)] bound appears as a curve in the
    E10 table (substitution documented in DESIGN.md). *)


type op = Elect

(** [Elect] returns [Value.Bool true] iff the caller is the leader. *)

type state

val make : n:int -> (state, op) Impl.t

(** Registers of the consensus match at heap node [node] ([>= 1]):
    [reg node v side] is value-[v]'s slot for the party on [side]. *)
val reg : int -> int -> int -> int
