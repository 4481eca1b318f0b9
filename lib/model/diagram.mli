(** ASCII space-time diagrams of executions.

    Renders a trace as one lane per process, one column per step — the
    pictures the covering arguments are usually drawn with, generated from
    real executions.  Used by the examples and handy when debugging a
    protocol or an adversary construction. *)

(** [render ~n trace] lays the trace out as [n] lanes.  Cells: [w3] write
    to register 3, [r3] read of register 3, [f+]/[f-] coin flips, [D!] a
    decision, [.] idle.  Long traces are wrapped into bands of
    [width] steps (default 24). *)
val render : ?width:int -> n:int -> Execution.trace -> string
