(** One-shot renaming from a grid of splitters (Moir–Anderson 1995).

    Processes with large original ids acquire small distinct names by
    walking a triangular grid of splitters: start at the corner, move
    right when the splitter answers Right, down when it answers Down, and
    take the splitter's grid index as your name when it answers Stop.  On
    every path at most [n - 1] processes continue past each splitter, so
    everyone stops within the first [n] diagonals: the name space is
    [n (n + 1) / 2].

    This is the same two-register splitter that powers the sub-linear
    leader-election results the paper's introduction contrasts with
    consensus — here demonstrating a task strictly weaker than consensus
    that is solvable wait-free from registers.

    [Rename] returns [Value.Int name]. *)

type op = Rename

type state

val make : n:int -> (state, op) Impl.t

(** [name_of ~row ~diag] is the name assigned at grid position
    (row, diag-row); exposed for tests. *)
val name_of : row:int -> diag:int -> int

(** Size of the name space: [n (n+1) / 2]. *)
val name_space : int -> int
