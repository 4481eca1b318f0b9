(* Append-only witness log.  See the .mli for the format contract. *)

open Ts_model
module Obs = Ts_obs.Obs

let store_version = 1
let magic = "TSWITLOG"
let header_len = 16
let record_header_len = 12
let max_key_bytes = 64 * 1024
let max_value_bytes = 4 * 1024 * 1024

type fsync =
  | Always
  | Interval of float
  | Never

type crash_point =
  | Crash_after_bytes of int
  | Crash_before_sync

exception Injected_crash

type t = {
  fd : Unix.file_descr;
  path : string;
  lock : Mutex.t;
  loc : string;  (* race-detector location of the log + index *)
  index : (int * int) Ckey.Tbl.t;  (* key -> value offset, value length *)
  fsync : fsync;
  mutable size : int;  (* current file size = append offset *)
  mutable dirty : bool;  (* appended since the last sync *)
  mutable last_sync : float;
  mutable closed : bool;
  mutable failpoint : crash_point option;  (* armed crash injection, tests only *)
  (* counters, all under [lock] *)
  mutable appends : int;
  mutable recovered : int;
  mutable torn_truncations : int;
  mutable torn_bytes : int;
  mutable recovery_ms : float;
  mutable recovery_bytes : int;
  mutable lookups : int;
  mutable hits : int;
  mutable syncs : int;
}

let put_u32 b off n =
  Bytes.set b off (Char.chr (n land 0xff));
  Bytes.set b (off + 1) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((n lsr 24) land 0xff))

let u32_of b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let header_bytes =
  let b = Bytes.make header_len '\000' in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  put_u32 b 8 store_version;
  Bytes.unsafe_to_string b

(* A finished checksum as the u32 a record header stores. *)
let crc_bits crc = Int32.to_int (Crc32.finish crc) land 0xffffffff

(* The record's bytes, assembled in place: the CRC covers the 8 length
   bytes and the key and value bytes that follow the CRC field. *)
let encode_record ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let b = Bytes.create (record_header_len + klen + vlen) in
  put_u32 b 0 klen;
  put_u32 b 4 vlen;
  Bytes.blit_string key 0 b record_header_len klen;
  Bytes.blit_string value 0 b (record_header_len + klen) vlen;
  let crc = Crc32.update Crc32.init b 0 8 in
  put_u32 b 8 (crc_bits (Crc32.update crc b record_header_len (klen + vlen)));
  b

let record_bytes ~key ~value = Bytes.unsafe_to_string (encode_record ~key ~value)

(* ---- low-level file I/O (caller holds the lock) ---------------------- *)

let write_all fd b off len =
  let rec go off len =
    if len > 0 then begin
      let k = Unix.write fd b off len in
      go (off + k) (len - k)
    end
  in
  go off len

(* [read_upto] returns how many bytes it actually got; a short count is
   how [open_] and [find] see a file shorter than expected without
   raising. *)
let read_upto fd b off len =
  let rec go off len got =
    if len = 0 then got
    else
      match Unix.read fd b off len with
      | 0 -> got
      | k -> go (off + k) (len - k) (got + k)
  in
  go off len 0

let pread t ~off ~len =
  ignore (Unix.lseek t.fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  if read_upto t.fd b 0 len <> len then None else Some (Bytes.unsafe_to_string b)

(* ---- open & recovery -------------------------------------------------- *)

let gauge_records t =
  Obs.Metrics.gauge "store.records" (Ckey.Tbl.length t.index);
  Obs.Metrics.gauge "store.bytes" t.size

(* Fold the next [left] bytes of [ic] into [crc], a chunk at a time. *)
let rec crc_input ic chunk crc left =
  if left = 0 then crc
  else begin
    let n = min left (Bytes.length chunk) in
    really_input ic chunk 0 n;
    crc_input ic chunk (Crc32.update crc chunk 0 n) (left - n)
  end

(* Scan the record region, indexing every intact record; the first damaged
   one marks the torn tail.  The scan reads the region front to back
   through one stdlib channel on the store's fd (its buffer is 64 KiB) and
   one reused chunk of [max_key_bytes]: each record's key and the start of
   its value are read into the chunk together and checked there, a longer
   value is checked a chunk at a time, and only the key is copied out.
   The channel is never closed: that would close the store's fd.  Returns
   the last valid end offset and the bytes of the file read, header
   included. *)
let recover t file_size =
  if file_size < header_len + record_header_len then (header_len, header_len)
  else begin
    ignore (Unix.lseek t.fd header_len Unix.SEEK_SET);
    let ic = Unix.in_channel_of_descr t.fd in
    let hdr = Bytes.create record_header_len in
    let chunk = Bytes.create max_key_bytes in
    let good = ref header_len and intact = ref true in
    (try
       while !intact && !good + record_header_len <= file_size do
         really_input ic hdr 0 record_header_len;
         let klen = u32_of hdr 0 and vlen = u32_of hdr 4 in
         let next = !good + record_header_len + klen + vlen in
         if
           klen < 1 || klen > max_key_bytes || vlen < 0 || vlen > max_value_bytes
           || next > file_size
         then intact := false
         else begin
           (* the chunk holds the whole key: klen <= max_key_bytes *)
           let first = min (klen + vlen) max_key_bytes in
           really_input ic chunk 0 first;
           let key = Bytes.sub_string chunk 0 klen in
           let crc = Crc32.update (Crc32.update Crc32.init hdr 0 8) chunk 0 first in
           if crc_bits (crc_input ic chunk crc (klen + vlen - first)) <> u32_of hdr 8
           then intact := false
           else begin
             Ckey.Tbl.replace t.index (Ckey.of_string key) (next - vlen, vlen);
             t.recovered <- t.recovered + 1;
             good := next
           end
         end
       done
     with End_of_file -> (* the file shrank under the scan *) ());
    (!good, pos_in ic)
  end

let open_ ?(fsync = Always) path =
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot open witness store %s: %s" path
         (Unix.error_message err))
  | fd ->
    let fail msg =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error msg
    in
    let file_size = (Unix.fstat fd).Unix.st_size in
    let t =
      {
        fd;
        path;
        lock = Mutex.create ();
        loc = Obs.fresh_loc "store.log";
        index = Ckey.Tbl.create 1024;
        fsync;
        size = 0;
        dirty = false;
        last_sync = Unix.gettimeofday ();
        closed = false;
        failpoint = None;
        appends = 0;
        recovered = 0;
        torn_truncations = 0;
        torn_bytes = 0;
        recovery_ms = 0.;
        recovery_bytes = 0;
        lookups = 0;
        hits = 0;
        syncs = 0;
      }
    in
    if file_size = 0 then begin
      (* fresh log: stamp the header *)
      let hdr = Bytes.of_string header_bytes in
      write_all fd hdr 0 header_len;
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      t.size <- header_len;
      Ok t
    end
    else if file_size < header_len then
      fail (Printf.sprintf "witness store %s: truncated file header" path)
    else begin
      let started = Unix.gettimeofday () in
      let hdr = Bytes.create header_len in
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      if read_upto fd hdr 0 header_len <> header_len then
        fail (Printf.sprintf "witness store %s: unreadable header" path)
      else if Bytes.sub_string hdr 0 8 <> magic then
        fail (Printf.sprintf "witness store %s: bad magic (not a witness log)" path)
      else begin
        let version = u32_of hdr 8 in
        if version <> store_version then
          fail
            (Printf.sprintf
               "witness store %s: format version %d, this build speaks %d \
                (recompute the corpus or migrate the log)"
               path version store_version)
        else begin
          let good_end, read = recover t file_size in
          if good_end < file_size then begin
            (* torn tail: drop it so the next append starts on a clean
               record boundary *)
            t.torn_truncations <- 1;
            t.torn_bytes <- file_size - good_end;
            Unix.ftruncate fd good_end;
            Obs.Metrics.incr "store.torn_truncations"
          end;
          t.size <- good_end;
          ignore (Unix.lseek fd good_end Unix.SEEK_SET);
          t.recovery_ms <- (Unix.gettimeofday () -. started) *. 1000.;
          t.recovery_bytes <- read;
          gauge_records t;
          Ok t
        end
      end
    end

(* ---- operations ------------------------------------------------------- *)

let locked t f =
  if t.closed then invalid_arg "Store: handle is closed";
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

(* A fired crash point behaves like the process dying at that instant:
   the handle becomes unusable and the fd is closed *without* a sync, so
   whatever reached the page cache is what a reopen will see.  The caller
   holds the lock (released by [locked]'s protect). *)
let fire_crash t =
  t.failpoint <- None;
  t.closed <- true;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  raise Injected_crash

(* All record bytes go through this hook.  Disarmed (the production case)
   it costs one immediate pattern match on [None] per append. *)
let crash_write t b off len =
  match t.failpoint with
  | None -> write_all t.fd b off len
  | Some (Crash_after_bytes budget) ->
    if budget < len then begin
      if budget > 0 then write_all t.fd b off budget;
      fire_crash t
    end
    else begin
      write_all t.fd b off len;
      t.failpoint <- Some (Crash_after_bytes (budget - len))
    end
  | Some Crash_before_sync -> write_all t.fd b off len

let do_sync t =
  if t.dirty then begin
    (match t.failpoint with
    | Some Crash_before_sync -> fire_crash t
    | _ -> ());
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    t.dirty <- false;
    t.syncs <- t.syncs + 1;
    t.last_sync <- Unix.gettimeofday ()
  end

let sync_per_policy t =
  match t.fsync with
  | Always -> do_sync t
  | Never -> ()
  | Interval s ->
    if Unix.gettimeofday () -. t.last_sync >= s then do_sync t

let append t ~key ~value =
  let kraw = Ckey.to_raw key in
  if String.length kraw > max_key_bytes then
    invalid_arg "Store.append: key exceeds max_key_bytes";
  if String.length kraw = 0 then invalid_arg "Store.append: empty key";
  if String.length value > max_value_bytes then
    invalid_arg "Store.append: value exceeds max_value_bytes";
  (* the cache write-through hook lands here from whichever domain
     computed the answer — logged for the race detector *)
  Obs.access ~loc:t.loc Obs.Write ~atomic:true;
  locked t @@ fun () ->
  if Ckey.Tbl.mem t.index key then false
  else begin
    let b = encode_record ~key:kraw ~value in
    let len = Bytes.length b in
    ignore (Unix.lseek t.fd t.size Unix.SEEK_SET);
    crash_write t b 0 len;
    Ckey.Tbl.replace t.index key
      (t.size + record_header_len + String.length kraw, String.length value);
    t.size <- t.size + len;
    t.dirty <- true;
    t.appends <- t.appends + 1;
    Obs.Metrics.incr "store.appends";
    gauge_records t;
    sync_per_policy t;
    true
  end

let find t key =
  Obs.access ~loc:t.loc Obs.Read ~atomic:true;
  locked t @@ fun () ->
  t.lookups <- t.lookups + 1;
  match Ckey.Tbl.find_opt t.index key with
  | None ->
    Obs.Metrics.incr "store.misses";
    None
  | Some (off, len) -> (
    match pread t ~off ~len with
    | Some _ as v ->
      t.hits <- t.hits + 1;
      Obs.Metrics.incr "store.hits";
      v
    | None ->
      (* an indexed record that cannot be read back means the file shrank
         under us; treat as a miss rather than corrupting the answer *)
      Obs.Metrics.incr "store.misses";
      None)

let mem t key =
  Obs.access ~loc:t.loc Obs.Read ~atomic:true;
  locked t @@ fun () ->
  t.lookups <- t.lookups + 1;
  let m = Ckey.Tbl.mem t.index key in
  if m then begin
    t.hits <- t.hits + 1;
    Obs.Metrics.incr "store.hits"
  end
  else Obs.Metrics.incr "store.misses";
  m

let iter t f =
  locked t @@ fun () ->
  Ckey.Tbl.iter (fun k (_, vlen) -> f k vlen) t.index

let sync t = locked t @@ fun () -> do_sync t

let close t =
  locked t @@ fun () ->
  do_sync t;
  t.closed <- true;
  try Unix.close t.fd with Unix.Unix_error _ -> ()

(* [abandon] is [close] minus the sync and the closed-handle check: the
   torture harness's "the process died between appends" move. *)
let abandon t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let inject_crash t p =
  Mutex.lock t.lock;
  t.failpoint <- Some p;
  Mutex.unlock t.lock

let crash_disarm t =
  Mutex.lock t.lock;
  t.failpoint <- None;
  Mutex.unlock t.lock

let crash_armed t = t.failpoint

let path t = t.path

type stats = {
  records : int;
  bytes : int;
  appends : int;
  recovered : int;
  torn_truncations : int;
  torn_bytes : int;
  recovery_ms : float;
  recovery_bytes : int;
  lookups : int;
  hits : int;
  syncs : int;
}

(* readable after [close] — the counters outlive the fd, and the daemon's
   exit summary runs after the drain has closed the store *)
let stats t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
  {
    records = Ckey.Tbl.length t.index;
    bytes = t.size;
    appends = t.appends;
    recovered = t.recovered;
    torn_truncations = t.torn_truncations;
    torn_bytes = t.torn_bytes;
    recovery_ms = t.recovery_ms;
    recovery_bytes = t.recovery_bytes;
    lookups = t.lookups;
    hits = t.hits;
    syncs = t.syncs;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d record%s, %d bytes (%d appended, %d recovered%s), %d/%d lookup hit%s, \
     %d fsync%s, recovery scan read %d bytes in %.2f ms"
    s.records
    (if s.records = 1 then "" else "s")
    s.bytes s.appends s.recovered
    (if s.torn_truncations > 0 then
       Printf.sprintf ", torn tail of %d bytes truncated" s.torn_bytes
     else "")
    s.hits s.lookups
    (if s.hits = 1 then "" else "s")
    s.syncs
    (if s.syncs = 1 then "" else "s")
    s.recovery_bytes s.recovery_ms
