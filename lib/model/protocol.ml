type pid = int

(* How a protocol's local state is packed into the canonical search key
   (see Ckey).  [Packed] writers must emit a self-delimiting byte string —
   tag bytes plus [Value.add_varint] fields suffice — so that concatenating
   per-process encodings stays injective.  [Generic] falls back to a
   structural serialization of the state. *)
type 's state_encoder =
  | Generic
  | Packed of (Buffer.t -> 's -> unit)

type 's t = {
  name : string;
  description : string;
  num_processes : int;
  num_registers : int;
  init : pid:pid -> input:Value.t -> 's;
  poised : 's -> Action.t;
  on_read : 's -> Value.t -> 's;
  on_write : 's -> 's;
  on_swap : 's -> Value.t -> 's;
  on_flip : 's -> bool -> 's;
  pp_state : Format.formatter -> 's -> unit;
  encode : 's state_encoder;
}

type packed = Packed : 's t -> packed


let no_flip _ _ =
  invalid_arg "Protocol.no_flip: deterministic protocol asked to flip a coin"

let no_swap _ _ =
  invalid_arg "Protocol.no_swap: read/write protocol asked to swap"
