(** Compact canonical configuration keys for the search engine.

    Every BFS in the engine (the checker's exploration, the valency oracle,
    the mutex covering search) keys visited/memo tables by configurations.
    The polymorphic [Hashtbl.hash] only samples a bounded prefix of a value,
    so deep configurations collide catastrophically as tables grow, and
    polymorphic [=] then rescans long buckets.  A [Ckey.t] packs the
    configuration once into a byte string — per-process status via the
    protocol's {!Protocol.state_encoder} plus a register digest — and caches
    a full-width FNV-1a hash of it.

    Packings are injective: every component encoding is self-delimiting and
    the component count is fixed by the protocol, so distinct configurations
    produce distinct keys. *)

type t

val of_string : string -> t

(** The packed digest bytes themselves — the inverse of {!of_string}.  The
    persistent witness store keys its on-disk records by these raw bytes
    (hex doubles the footprint for no information), so the same golden
    digests that pin {!to_hex} pin the stored key bytes too. *)
val to_raw : t -> string
val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int

(** Number of bytes in the packed digest (observability/testing). *)
val digest_bytes : t -> int

(** Lowercase hexadecimal rendering of the packed digest.  Two keys render
    identically iff they are {!equal}, so the rendering is a stable,
    printable cache-key/fingerprint form: the service layer keys its result
    cache by it and the digest-stability regression test pins golden values
    of it.  Changing any component encoding changes these strings — bump
    the service cache version when that happens. *)
val to_hex : t -> string

(** [of_marshal v] keys an arbitrary plain-data value by its structural
    serialization — the fallback for state spaces without a packed encoder
    (e.g. the mutex lock snapshots). *)
val of_marshal : 'a -> t

(** A packer owns a scratch buffer reused across packings.  Packers are not
    shareable across domains: create one per search. *)
type 's packer

val packer : 's Protocol.t -> 's packer
val pack : 's packer -> 's Config.t -> t

(** [pack_group pk cfg ps] packs only the statuses of the members of [ps]
    (in pid order) plus the registers: the part of [cfg] that a search in
    which only [ps] moves, and which only looks at [ps], can observe.
    Injective among configurations for one fixed [ps]; keys for different
    groups may coincide, so tables shared across groups must salt them
    with {!Pset.to_mask}. *)
val pack_group : 's packer -> 's Config.t -> Pset.t -> t

(** Hash tables keyed by packed configurations. *)
module Tbl : Hashtbl.S with type key = t

(** Keys salted with a small integer of context (process id, participant
    mask, target value...) for memo tables whose key is a configuration
    plus context. *)
module Salted : sig
  type ckey := t

  type t

  val make : ckey -> int -> t
  val equal : t -> t -> bool
  val hash : t -> int
end

module Salted_tbl : Hashtbl.S with type key = Salted.t
