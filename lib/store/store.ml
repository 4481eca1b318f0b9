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
  scratch : Buffer.t;  (* record assembly, reused across appends *)
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
  mutable lookups : int;
  mutable hits : int;
  mutable syncs : int;
}

let u32_to buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let u32_of b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let header_bytes =
  let buf = Buffer.create header_len in
  Buffer.add_string buf magic;
  u32_to buf store_version;
  u32_to buf 0;
  Buffer.contents buf

let record_crc ~key ~value =
  let lens = Buffer.create 8 in
  u32_to lens (String.length key);
  u32_to lens (String.length value);
  let crc = Crc32.update_string Crc32.init (Buffer.contents lens) 0 8 in
  let crc = Crc32.update_string crc key 0 (String.length key) in
  let crc = Crc32.update_string crc value 0 (String.length value) in
  Int32.to_int (Crc32.finish crc) land 0xffffffff

let add_record buf ~key ~value =
  u32_to buf (String.length key);
  u32_to buf (String.length value);
  u32_to buf (record_crc ~key ~value);
  Buffer.add_string buf key;
  Buffer.add_string buf value

let record_bytes ~key ~value =
  let buf = Buffer.create (record_header_len + String.length key + String.length value) in
  add_record buf ~key ~value;
  Buffer.contents buf

(* ---- low-level file I/O (caller holds the lock) ---------------------- *)

let write_all fd b off len =
  let rec go off len =
    if len > 0 then begin
      let k = Unix.write fd b off len in
      go (off + k) (len - k)
    end
  in
  go off len

(* [read_exact] returns how many bytes it actually got; a short count is
   how recovery detects a torn tail without raising. *)
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

(* Scan the record region, indexing every intact record; the first damaged
   one marks the torn tail.  Returns the last valid end offset. *)
let recover t file_size =
  let hdr = Bytes.create record_header_len in
  let rec scan off =
    if off >= file_size then off
    else begin
      ignore (Unix.lseek t.fd off Unix.SEEK_SET);
      if read_upto t.fd hdr 0 record_header_len <> record_header_len then off
      else
        let klen = u32_of hdr 0 and vlen = u32_of hdr 4 and crc = u32_of hdr 8 in
        if
          klen < 1 || klen > max_key_bytes || vlen < 0 || vlen > max_value_bytes
          || off + record_header_len + klen + vlen > file_size
        then off
        else begin
          let payload = Bytes.create (klen + vlen) in
          if read_upto t.fd payload 0 (klen + vlen) <> klen + vlen then off
          else begin
            let key = Bytes.sub_string payload 0 klen in
            let value = Bytes.sub_string payload klen vlen in
            if record_crc ~key ~value <> crc then off
            else begin
              Ckey.Tbl.replace t.index (Ckey.of_string key)
                (off + record_header_len + klen, vlen);
              t.recovered <- t.recovered + 1;
              scan (off + record_header_len + klen + vlen)
            end
          end
        end
    end
  in
  scan header_len

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
        scratch = Buffer.create 4096;
        size = 0;
        dirty = false;
        last_sync = Unix.gettimeofday ();
        closed = false;
        failpoint = None;
        appends = 0;
        recovered = 0;
        torn_truncations = 0;
        torn_bytes = 0;
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
          let good_end = recover t file_size in
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
    Buffer.clear t.scratch;
    add_record t.scratch ~key:kraw ~value;
    let len = Buffer.length t.scratch in
    let b = Buffer.to_bytes t.scratch in
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
    lookups = t.lookups;
    hits = t.hits;
    syncs = t.syncs;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d record%s, %d bytes (%d appended, %d recovered%s), %d/%d lookup hit%s, \
     %d fsync%s"
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
