(** Pending steps of a process.

    In Zhu's model a step is a read or a write of a register; a process that
    has reached a decision takes no further steps.  We add [Flip] so the same
    machinery covers randomized protocols: Zhu's bound applies to every
    nondeterministic-solo-terminating protocol, and the adversary engine
    resolves coin flips adversarially while the simulator resolves them with
    a seeded RNG. *)

type reg = int
(** Registers are indexed by small integers. *)

type t =
  | Read of reg  (** poised to read register [reg] *)
  | Write of reg * Value.t  (** poised to write [Value.t] to [reg] *)
  | Swap of reg * Value.t
      (** poised to atomically write and receive the displaced value — the
          historyless-but-stronger primitive of the paper's §4 *)
  | Flip  (** poised to flip a local coin *)
  | Decide of Value.t  (** poised to decide (terminal) *)

val equal : t -> t -> bool

(** [written_register a] is [Some r] iff [a] writes (or swaps) [r]. *)
val written_register : t -> reg option

(** [accessed_register a] is [Some r] iff [a] reads or writes [r]. *)
val accessed_register : t -> reg option

(** {2 Commuting steps}

    Two steps taken by different processes commute unless one of them
    writes ([Write] or [Swap]) a register the other accesses.  A step
    depends only on its process's state and the register it accesses
    ({!Config.perform}), so from any configuration in which both can be
    taken, either order reaches the same configuration.  [Flip] and
    [Decide] access no register and commute with every step. *)

(** [commute a b] holds iff neither [a] nor [b] writes a register the
    other accesses: [a] and [b], taken by two different processes, commute. *)
val commute : t -> t -> bool

(** [footprint a] is [a]'s register access as an immediate int: [0] if
    [a] accesses no register, otherwise the register and whether [a]
    writes it.  The searches store it per queued node instead of the
    action itself. *)
val footprint : t -> int

(** [independent (footprint a) (footprint b)] is [commute a b]. *)
val independent : int -> int -> bool

val is_write : t -> bool
val is_swap : t -> bool
val is_read : t -> bool
val is_decide : t -> bool
val pp : Format.formatter -> t -> unit
