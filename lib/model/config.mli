(** Configurations: the global state of the system.

    A configuration consists of the local state of every process and the
    contents of every register (Zhu §2).  Processes that have decided are
    recorded with their decision and take no further steps.

    Configurations are plain immutable data; [equal]/[hash] are structural,
    which is exactly the indistinguishability notion the proofs need when
    restricted to the relevant components. *)

type pid = int

type 's status =
  | Running of 's
  | Decided of Value.t

type 's t = private {
  procs : 's status array;
  regs : Value.t array;
}

(** [initial proto ~inputs] is the initial configuration in which process
    [i] has input [inputs.(i)] and every register holds [Value.bot].
    @raise Invalid_argument if [Array.length inputs <> proto.num_processes]. *)
val initial : 's Protocol.t -> inputs:Value.t array -> 's t

(** [poised proto cfg p] is the action process [p] is poised to perform, or
    [None] if [p] has decided. *)
val poised : 's Protocol.t -> 's t -> pid -> Action.t option

(** [step proto cfg p ~coin] applies one step of process [p].  [coin] must
    be [Some _] exactly when [p] is poised to flip.  Returns the resulting
    configuration and the action performed.
    @raise Invalid_argument if [p] has already decided, or on coin misuse. *)
val step : 's Protocol.t -> 's t -> pid -> coin:bool option -> 's t * Action.t

(** [perform proto cfg p s act ~coin] is [fst (step proto cfg p ~coin)]
    for a caller that has already read [p]'s status [Running s] from [cfg]
    and [act = proto.poised s]: {!step} is [proto.poised], then [perform].
    The successor enumeration ({!Execution.iter_successors}) uses it to ask
    the protocol once per member rather than once per successor.
    @raise Invalid_argument on coin misuse, as {!step}. *)
val perform :
  's Protocol.t -> 's t -> pid -> 's -> Action.t -> coin:bool option -> 's t

(** [has_decided cfg p] is the decision of [p] in [cfg], if any. *)
val has_decided : 's t -> pid -> Value.t option

(** All decisions present in [cfg] (without duplicates, in value order). *)
val decided_values : 's t -> Value.t list

(** [covers proto cfg p] is [Some r] iff [p] is poised to write register
    [r] in [cfg] (Definition 2: [p] covers [r]). *)
val covers : 's Protocol.t -> 's t -> pid -> Action.reg option

(** [covered_registers proto cfg ps] is the set of registers covered by the
    processes of [ps], as a sorted list of distinct registers. *)
val covered_registers : 's Protocol.t -> 's t -> Pset.t -> Action.reg list

(** [covering_is_distinct proto cfg ps] holds iff every process of [ps]
    covers a register and no two cover the same one ("well spread"). *)
val covering_is_distinct : 's Protocol.t -> 's t -> Pset.t -> bool

val equal : 's t -> 's t -> bool
val hash : 's t -> int

(** [register v cfg r] is the contents of register [r]. *)
val register : 's t -> Action.reg -> Value.t

val pp : 's Protocol.t -> Format.formatter -> 's t -> unit
