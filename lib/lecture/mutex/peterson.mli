(** Peterson's n-process mutual exclusion (the filter lock), as presented
    in part II of the lecture bundle.

    [n - 1] levels; at level [m] a process announces [level[me] = m],
    signs the level's waiting board [waiting[m] = me], and busy-waits
    until either someone else signed after it ([waiting[m] <> me]) or no
    other process is at level [m] or higher.  A process that clears all
    levels enters the critical section; the exit code resets its level.

    Registers: [n] level registers followed by [n - 1] waiting registers.
    Total work in canonical executions is O(n^3) worst case (the slides'
    figure); the serial canonical cost in the state-change model measures
    Θ(n²), well above the Fan–Lynch Ω(n log n) floor that the arbitration
    tree matches. *)

type state

val make : n:int -> state Algorithm.t
