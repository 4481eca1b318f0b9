(** A seeded fault-injecting TCP proxy — the adversarial {e environment}
    for the service stack.

    The paper's engine reasons about worst-case schedules; this module
    gives the daemon the same treatment at the transport layer.  The
    proxy sits between a client and a serving daemon and, per a seeded
    per-connection fault plan (the {!Ts_model.Fault} discipline applied
    to sockets), injects:

    - {b latency}: every relayed chunk held back a fixed seeded delay;
    - {b bandwidth throttling}: each side's writes capped per loop tick;
    - {b connection resets}: after a seeded number of relayed bytes the
      connection is killed with an RST (SO_LINGER 0) — usually
      mid-frame;
    - {b frame truncation}: the daemon→client stream is cut with a FIN
      after a seeded byte count, so the client sees a frame shorter
      than its header promised;
    - {b byte corruption}: seeded stream offsets are overwritten with
      [0x01] — a byte that can never appear in a well-formed frame
      (not a digit in the header, an unescaped control character
      inside JSON), so corruption is always {e detectable}, never a
      silent answer change.  This is what lets the chaos acceptance
      bar demand byte-identical answers under corruption.

    Every connection's plan derives from [config.seed] and the
    connection's accept ordinal, every injected fault is logged to stderr
    with both when [config.verbose] is set, and the whole run replays
    exactly from the one printed seed.

    The proxy is one extra domain running a [Unix.select] relay loop —
    stdlib only, same discipline as {!Evloop}. *)

(** Which fault classes the plan sampler may draw.  A disabled class is
    never injected regardless of seed. *)
type classes = {
  resets : bool;
  truncations : bool;
  corruption : bool;
  latency : bool;
  throttle : bool;
}

(** [classes_of_string "reset,corrupt"] enables the named classes
    (names: [reset], [truncate], [corrupt], [delay], [throttle]; [all]
    and [none] as shorthands).  [Error] on an unknown name. *)
val classes_of_string : string -> (classes, string) result

val classes_to_string : classes -> string

type config = {
  listen_host : string;
  listen_port : int;  (** [0] picks an ephemeral port — see {!port} *)
  upstream_host : string;
  upstream_port : int;
  seed : int;  (** master seed; every plan derives from it *)
  fault_prob : float;
      (** probability an accepted connection draws a faulty plan at
          all; clean connections relay verbatim *)
  classes : classes;
  max_delay_ms : int;  (** latency draws are uniform in [1, max] *)
  verbose : bool;  (** log every injected fault to stderr as it fires *)
}

(** Listens ephemerally on localhost, faults every class with
    probability 0.6, delays up to 25 ms. *)
val default_config : upstream_port:int -> config

type t

(** [start config] binds the listener, spawns the relay domain and
    returns immediately.
    @raise Unix.Unix_error if the listen address cannot be bound. *)
val start : config -> t

(** The actually bound listen port. *)
val port : t -> int

(** Stop accepting, kill every live relay, join the domain. *)
val stop : t -> unit

type stats = {
  connections : int;  (** accepted *)
  faulted : int;  (** connections whose plan held at least one fault *)
  resets : int;  (** RSTs injected *)
  truncations : int;  (** FIN-mid-frame injections *)
  corruptions : int;  (** bytes overwritten *)
  delayed_chunks : int;  (** chunks held back by injected latency *)
  throttled_chunks : int;  (** writes clipped by the bandwidth cap *)
  bytes_up : int;  (** client→daemon bytes relayed *)
  bytes_down : int;  (** daemon→client bytes relayed *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
