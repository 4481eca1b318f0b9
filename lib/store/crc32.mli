(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial), self-contained so the
    witness store adds no compression-library dependency.

    Every record in the append-only witness log carries a CRC over its
    header lengths and payload bytes; recovery after a crash walks the log
    and stops at the first record whose checksum disagrees — that is the
    torn tail.  The polynomial choice is deliberate: the values match
    [python3 -c 'import zlib; print(zlib.crc32(b"..."))'], so a log file
    is auditable with stock tooling.

    The implementation is slicing-by-8 (eight lookup tables, eight input
    bytes per step, built once on first use) over native ints: the values
    are those of the bytewise algorithm, and {!update} allocates nothing
    but its boxed result, whatever the length. *)

(** [string s] is the CRC-32 of all of [s]. *)
val string : string -> int32

(** Incremental interface: [update crc b off len] folds [len] bytes of [b]
    starting at [off] into a running checksum seeded by {!init}.
    @raise Invalid_argument when [off]/[len] do not name a range of [b]. *)
val init : int32

val update : int32 -> Bytes.t -> int -> int -> int32
val update_string : int32 -> string -> int -> int -> int32

(** Finalize a running checksum started from {!init}. *)
val finish : int32 -> int32
