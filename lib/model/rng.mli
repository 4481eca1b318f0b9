(** A small deterministic PRNG (splitmix64).

    Experiments must be reproducible from a printed seed, so nothing in the
    library uses global randomness; every randomized component takes an
    explicit [Rng.t]. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val state : t -> int64
(** [state t] is the generator's current internal state.  Any splitmix64
    state is itself a valid seed: [of_state (state t)] replays the exact
    stream [t] would produce from here on — the replay token {!Sim.run}
    records for randomized schedules. *)

val of_state : int64 -> t
(** [of_state s] is a generator resuming from a captured {!state}. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val bool : t -> bool

(** [permutation t n] is a uniform permutation of [0..n-1]. *)
val permutation : t -> int -> int array
