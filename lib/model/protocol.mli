(** Protocols as explicit deterministic state machines.

    A protocol assigns each process a deterministic algorithm over shared
    registers (Zhu §2): from any local state the process is *poised* to
    perform exactly one action, and its next state is a function of the
    action's result.  Randomized protocols surface their coin flips as
    [Action.Flip] steps, whose outcome is supplied by the environment — the
    adversary engine enumerates both outcomes (nondeterministic solo
    termination), the simulator draws them from a seeded RNG.

    States must be plain immutable OCaml data (no closures, no mutation):
    the engine memoizes on configurations using structural equality and
    hashing. *)

type pid = int

(** How a protocol's local state is serialized into the packed search keys
    of {!Ckey}.  A [Packed] writer must emit a self-delimiting byte string
    (tag bytes plus {!Value.add_varint} fields suffice) so that
    concatenating per-process encodings remains injective; [Generic] falls
    back to a structural serialization, correct for any plain-data state
    but slower and bulkier. *)
type 's state_encoder =
  | Generic
  | Packed of (Buffer.t -> 's -> unit)

type 's t = {
  name : string;  (** short identifier used in tables and traces *)
  description : string;  (** one-line human description *)
  num_processes : int;  (** the [n] the instance is built for *)
  num_registers : int;  (** registers the protocol may access: 0..num_registers-1 *)
  init : pid:pid -> input:Value.t -> 's;
      (** initial local state of process [pid] with input [input] *)
  poised : 's -> Action.t;  (** the unique step the state is poised to take *)
  on_read : 's -> Value.t -> 's;  (** state after a read returning the value *)
  on_write : 's -> 's;  (** state after the pending write is applied *)
  on_swap : 's -> Value.t -> 's;  (** state after a swap, given the displaced value *)
  on_flip : 's -> bool -> 's;  (** state after a coin flip *)
  pp_state : Format.formatter -> 's -> unit;
  encode : 's state_encoder;
      (** packs the state into search keys; see {!state_encoder} *)
}

(** Protocols with hidden state type, for registries and CLIs. *)
type packed = Packed : 's t -> packed

(** [no_flip] is a convenience [on_flip] for deterministic protocols; it
    raises if ever invoked. *)
val no_flip : 's -> bool -> 's

(** [no_swap] is a convenience [on_swap] for read/write-only protocols; it
    raises if ever invoked. *)
val no_swap : 's -> Value.t -> 's
