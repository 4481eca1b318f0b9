(** The persistent witness store: an append-only, CRC-framed,
    content-addressed log of engine answers.

    The ROADMAP's serving story treats witnesses like a CDN treats
    objects: an answer is a pure function of its request digest
    ({!Ts_model.Ckey}), immutable once computed, and therefore safe to
    persist forever and serve from anywhere.  This module is the disk
    half of that story.  The service dispatcher writes every complete,
    cacheable answer through to the log; a restarted daemon replays the
    log's index at open and answers previously-seen queries from disk
    without recomputation.

    {b File anatomy} (all integers little-endian; see docs/SERVICE.md for
    the diagram):

    {v
    offset 0   8 bytes   magic "TSWITLOG"
    offset 8   4 bytes   store format version (u32)
    offset 12  4 bytes   reserved, zero
    then, repeated until EOF:
      4 bytes  klen (u32)   length of the key bytes
      4 bytes  vlen (u32)   length of the value bytes
      4 bytes  CRC-32 over the 8 length bytes, the key and the value
      klen bytes  raw Ckey digest bytes
      vlen bytes  the serialized answer (compact JSON)
    v}

    {b Recovery.}  Open scans the log record by record, in one sequential
    pass through bounded buffers (a 64 KiB channel buffer and one reused
    64 KiB chunk, in which each record's key and value are checked),
    copying out only the keys.  The first record that is truncated,
    oversized or checksum-damaged marks the torn tail: the file is
    truncated back to the last valid record boundary and the scan's
    survivors form the in-memory index.  A crash mid-append therefore
    loses at most the record being appended, never an earlier
    one — replay-from-log recovery in the Aspnes logging discipline.

    {b Durability.}  [Always] fsyncs after every append (the default:
    appends only happen on fresh engine computations, which dwarf an
    fsync), [Interval s] at most every [s] seconds, [Never] leaves
    flushing to the OS.  [close] always syncs.

    {b Concurrency.}  All operations are serialized by an internal mutex:
    the event loop appends while pool workers look up.  The store keeps
    only offsets in memory — values are read from disk on demand, so a
    million-witness corpus costs the daemon index entries, not heap.

    {b Versioning.}  [store_version] participates in the same golden-guard
    discipline as the dispatcher's cache version: any change to the header
    or record byte layout must bump it (test/suite_digest.ml pins the
    encoded bytes), and opening a log of a different version is refused
    rather than misread. *)

type t

(** When appended records are forced to disk. *)
type fsync =
  | Always  (** fsync after every append *)
  | Interval of float  (** fsync at most every [s] seconds, and on close *)
  | Never  (** leave flushing to the OS; crash may lose recent appends *)

(** The on-disk format version.  Bump on any header/record layout change
    and refresh the goldens in test/suite_digest.ml. *)
val store_version : int

(** The 8 magic bytes opening every log file. *)
val magic : string

(** The exact bytes of a fresh log's 16-byte file header (golden-guard
    material). *)
val header_bytes : string

(** [record_bytes ~key ~value] is the exact on-disk encoding of one
    record — the pure function the golden-format test pins. *)
val record_bytes : key:string -> value:string -> string

(** Bytes of the klen/vlen/crc prefix of every record (12): the
    crash-torture harness uses it to aim tears inside a header. *)
val record_header_len : int

(** Caps on a single record's components; [append] refuses beyond them
    (and recovery treats larger claims as tail damage). *)
val max_key_bytes : int

val max_value_bytes : int

(** [open_ path] opens or creates the log at [path], recovering the index
    from disk.  [Error] on a foreign or version-mismatched file, or an
    unopenable path. *)
val open_ : ?fsync:fsync -> string -> (t, string) result

val path : t -> string

(** [append t ~key ~value] persists one record and indexes it.  Returns
    [false] without touching disk when [key] is already stored — records
    are content-addressed and immutable, so a second append of the same
    key is a no-op by design.
    @raise Invalid_argument when the key or value exceeds its cap. *)
val append : t -> key:Ts_model.Ckey.t -> value:string -> bool

(** [find t key] reads the stored answer back from disk. *)
val find : t -> Ts_model.Ckey.t -> string option

val mem : t -> Ts_model.Ckey.t -> bool

(** [iter t f] calls [f key value_length] for every indexed record, in
    unspecified order (the inspector's walk; values stay on disk). *)
val iter : t -> (Ts_model.Ckey.t -> int -> unit) -> unit

(** Force buffered appends to disk now (whatever the policy). *)
val sync : t -> unit

(** Sync and release the file descriptor.  Further use raises. *)
val close : t -> unit

(** Release the file descriptor {e without} syncing and without touching
    anything else — the "process died here" move for crash testing.
    Idempotent; a no-op on a closed handle.  Further use raises. *)
val abandon : t -> unit

(** {1 Crash-point injection}

    Deterministic simulated crashes for the torture harness
    ({!Torture}) and the store test suite.  A crash point is {e armed}
    on a live handle; when the guarded operation reaches it, the store
    behaves as if the process died at that instant: the armed point is
    cleared, the handle is marked closed, the fd is closed {e without}
    fsync, and {!Injected_crash} is raised to the caller.  Whatever
    bytes the kernel had already accepted are what a subsequent
    {!open_} recovers — exactly the failure surface real crashes
    expose.

    Disarmed (the production state) the hook costs a single pattern
    match on [None] per append and per sync — there is no code path,
    allocation or syscall difference. *)

type crash_point =
  | Crash_after_bytes of int
      (** Let [n] more record bytes reach the kernel, then die inside
          the write that would exceed the allowance.  [n] below the
          12-byte record header tears mid-header; any [n] short of the
          full record produces a torn tail for recovery to truncate. *)
  | Crash_before_sync
      (** Die at the next fsync attempt, after the record bytes were
          written but before durability was promised.  With
          [Interval]/[Never] policies this models losing the page
          cache's word. *)

exception Injected_crash

(** Arm [p] on a live handle (replacing any previously armed point). *)
val inject_crash : t -> crash_point -> unit

(** Disarm without firing. *)
val crash_disarm : t -> unit

(** Currently armed point, if any. *)
val crash_armed : t -> crash_point option

(** Point-in-time counters. *)
type stats = {
  records : int;  (** indexed records right now *)
  bytes : int;  (** log file size in bytes *)
  appends : int;  (** records appended by this handle *)
  recovered : int;  (** records replayed from disk at open *)
  torn_truncations : int;  (** torn tails cut at open (0 or 1) *)
  torn_bytes : int;  (** bytes discarded by the truncation *)
  recovery_ms : float;
      (** wall time of the open's recovery scan (header check, record
          scan, truncation); 0 for a fresh log *)
  recovery_bytes : int;
      (** bytes of the log that scan read, header included; 0 for a
          fresh log *)
  lookups : int;  (** [find]/[mem] calls *)
  hits : int;  (** lookups that found their key *)
  syncs : int;  (** fsyncs issued *)
}

(** Unlike every other operation, {!stats} stays readable after
    {!close} — the counters outlive the fd, and a daemon's exit summary
    renders after the drain has closed its store. *)
val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
