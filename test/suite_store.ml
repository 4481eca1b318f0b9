(* The persistent witness store: format, recovery, durability glue.

   The store's contract is the serving story's differential guarantee made
   durable: an answer read back from disk must be the exact bytes that
   were appended, across process restarts and across a torn tail cut.
   These tests exercise the format edges a daemon restart meets in anger —
   clean replay, idempotent re-append, a mid-record crash, checksum
   damage, a foreign or future-versioned file — plus the QCheck property
   that replay recovers exactly what was appended, whatever the corpus. *)

open Ts_model
module Store = Ts_store.Store
module Cache = Ts_core.Cache

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tswitlog-test-%d-%d.log" (Unix.getpid ()) !n)

let with_log f =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_ok ?fsync path =
  match Store.open_ ?fsync path with
  | Ok t -> t
  | Error msg -> Alcotest.failf "open_ %s: %s" path msg

let key_of s = Ckey.of_string s

let file_size path = (Unix.stat path).Unix.st_size

(* append through reopen: every record comes back byte-identical *)
let test_roundtrip () =
  with_log @@ fun path ->
  let pairs =
    [
      ("k1", "{\"verdict\":\"clean\"}");
      ("key-two", String.make 1000 'x');
      ("\x00\x01\xff", "binary-safe value \x00\xff");
    ]
  in
  let t = open_ok path in
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) "append is fresh" true
        (Store.append t ~key:(key_of k) ~value:v))
    pairs;
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) "find before close" (Some v)
        (Store.find t (key_of k)))
    pairs;
  let s = Store.stats t in
  Alcotest.(check int) "records" 3 s.Store.records;
  Alcotest.(check int) "appends" 3 s.Store.appends;
  Store.close t;
  (* reopen: index rebuilt from disk *)
  let t = open_ok path in
  let s = Store.stats t in
  Alcotest.(check int) "recovered" 3 s.Store.recovered;
  Alcotest.(check int) "no torn tail" 0 s.Store.torn_truncations;
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) "find after reopen" (Some v)
        (Store.find t (key_of k)))
    pairs;
  Alcotest.(check bool) "mem hit" true (Store.mem t (key_of "k1"));
  Alcotest.(check bool) "mem miss" false (Store.mem t (key_of "absent"));
  Store.close t

let test_idempotent_append () =
  with_log @@ fun path ->
  let t = open_ok path in
  ignore (Store.append t ~key:(key_of "k") ~value:"v1");
  let size1 = (Store.stats t).Store.bytes in
  Alcotest.(check bool) "second append is a no-op" false
    (Store.append t ~key:(key_of "k") ~value:"v2");
  Alcotest.(check int) "no bytes written" size1 (Store.stats t).Store.bytes;
  Alcotest.(check (option string)) "first value wins" (Some "v1")
    (Store.find t (key_of "k"));
  Store.close t

(* a crash mid-append loses at most the record being appended *)
let test_torn_tail_truncated () =
  with_log @@ fun path ->
  let t = open_ok path in
  ignore (Store.append t ~key:(key_of "a") ~value:"alpha");
  ignore (Store.append t ~key:(key_of "b") ~value:"beta");
  let good = (Store.stats t).Store.bytes in
  ignore (Store.append t ~key:(key_of "c") ~value:"gamma");
  let full = (Store.stats t).Store.bytes in
  Store.close t;
  (* tear the last record: drop its final 3 bytes *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Unix.ftruncate fd (full - 3);
  Unix.close fd;
  let t = open_ok path in
  let s = Store.stats t in
  Alcotest.(check int) "one truncation" 1 s.Store.torn_truncations;
  Alcotest.(check int) "tail cut back to the last valid record" good
    s.Store.bytes;
  Alcotest.(check int) "torn bytes counted" (full - 3 - good) s.Store.torn_bytes;
  Alcotest.(check int) "survivors recovered" 2 s.Store.recovered;
  Alcotest.(check (option string)) "survivor byte-identical" (Some "alpha")
    (Store.find t (key_of "a"));
  Alcotest.(check (option string)) "torn record gone" None
    (Store.find t (key_of "c"));
  (* the log must accept appends again on the clean boundary *)
  Alcotest.(check bool) "append after recovery" true
    (Store.append t ~key:(key_of "c") ~value:"gamma2");
  Alcotest.(check (option string)) "re-appended record served" (Some "gamma2")
    (Store.find t (key_of "c"));
  Store.close t;
  Alcotest.(check int) "file physically truncated" good
    (file_size path
    - String.length (Store.record_bytes ~key:"c" ~value:"gamma2"))

let test_crc_damage_drops_tail () =
  with_log @@ fun path ->
  let t = open_ok path in
  ignore (Store.append t ~key:(key_of "a") ~value:"alpha");
  let good = (Store.stats t).Store.bytes in
  ignore (Store.append t ~key:(key_of "b") ~value:"beta");
  Store.close t;
  (* flip one byte inside the second record's value *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (file_size path - 1) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let t = open_ok path in
  let s = Store.stats t in
  Alcotest.(check int) "checksum damage truncates" 1 s.Store.torn_truncations;
  Alcotest.(check int) "only the intact prefix survives" 1 s.Store.recovered;
  Alcotest.(check int) "size back at the damage boundary" good s.Store.bytes;
  Alcotest.(check (option string)) "intact record unharmed" (Some "alpha")
    (Store.find t (key_of "a"));
  Store.close t

let test_foreign_and_future_files_refused () =
  with_log @@ fun path ->
  (* not a witness log at all *)
  let oc = open_out_bin path in
  output_string oc "definitely not a log with enough bytes to have a header";
  close_out oc;
  (match Store.open_ path with
   | Error msg ->
     Alcotest.(check bool) "bad magic named" true
       (String.length msg > 0)
   | Ok _ -> Alcotest.fail "opened a foreign file");
  (* right magic, wrong version *)
  let oc = open_out_bin path in
  output_string oc Store.magic;
  output_string oc "\x63\x00\x00\x00\x00\x00\x00\x00" (* version 99 *);
  close_out oc;
  match Store.open_ path with
  | Error msg ->
    Alcotest.(check bool) "version mismatch diagnosed" true
      (let has_sub hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
         go 0
       in
       has_sub msg "version 99")
  | Ok _ -> Alcotest.fail "opened a future-versioned file"

(* ---- crash-point injection and torture --------------------------------- *)

module Torture = Ts_store.Torture

(* an armed byte budget tears the in-flight record at exactly that byte *)
let test_crash_after_bytes () =
  with_log @@ fun path ->
  let t = open_ok path in
  ignore (Store.append t ~key:(key_of "a") ~value:"alpha");
  let good = (Store.stats t).Store.bytes in
  (* the record is 12 header + 1 key + 4 value bytes; a 14-byte budget
     tears it just past the header *)
  Store.inject_crash t (Store.Crash_after_bytes 14);
  Alcotest.(check bool) "armed" true (Store.crash_armed t <> None);
  (match Store.append t ~key:(key_of "b") ~value:"beta" with
   | exception Store.Injected_crash -> ()
   | _ -> Alcotest.fail "append survived the armed crash");
  Alcotest.(check int) "exactly the budget hit the disk" (good + 14)
    (file_size path);
  Alcotest.(check bool) "the handle died with the crash" true
    (match Store.find t (key_of "a") with
     | exception _ -> true
     | _ -> false);
  let t = open_ok path in
  let s = Store.stats t in
  Alcotest.(check int) "torn tail cut" 1 s.Store.torn_truncations;
  Alcotest.(check int) "torn bytes = the armed budget" 14 s.Store.torn_bytes;
  Alcotest.(check int) "in-flight record lost, prior prefix intact" 1
    s.Store.recovered;
  Alcotest.(check (option string)) "survivor byte-identical" (Some "alpha")
    (Store.find t (key_of "a"));
  Alcotest.(check bool) "log accepts appends again" true
    (Store.append t ~key:(key_of "b") ~value:"beta");
  Store.close t

(* a crash inside the 12-byte header leaves a tail recovery must also cut *)
let test_crash_mid_header () =
  with_log @@ fun path ->
  let t = open_ok path in
  ignore (Store.append t ~key:(key_of "a") ~value:"alpha");
  Store.inject_crash t (Store.Crash_after_bytes (Store.record_header_len - 7));
  (match Store.append t ~key:(key_of "b") ~value:"beta" with
   | exception Store.Injected_crash -> ()
   | _ -> Alcotest.fail "append survived the armed crash");
  let t = open_ok path in
  let s = Store.stats t in
  Alcotest.(check int) "header shard truncated" 1 s.Store.torn_truncations;
  Alcotest.(check int) "of exactly the armed size" (Store.record_header_len - 7)
    s.Store.torn_bytes;
  Alcotest.(check (option string)) "prior record served" (Some "alpha")
    (Store.find t (key_of "a"));
  Store.close t

(* dying before the fsync recovers the fully-written unacknowledged
   record: durable but unacked is allowed, lost but acked is not *)
let test_crash_before_sync () =
  with_log @@ fun path ->
  let t = open_ok path in
  ignore (Store.append t ~key:(key_of "a") ~value:"alpha");
  Store.inject_crash t Store.Crash_before_sync;
  (match Store.append t ~key:(key_of "b") ~value:"beta" with
   | exception Store.Injected_crash -> ()
   | _ -> Alcotest.fail "append survived the armed crash");
  let t = open_ok path in
  let s = Store.stats t in
  Alcotest.(check int) "no torn tail" 0 s.Store.torn_truncations;
  Alcotest.(check int) "unacked record fully recovered" 2 s.Store.recovered;
  Alcotest.(check (option string)) "its value intact" (Some "beta")
    (Store.find t (key_of "b"));
  Store.close t

(* disarming really is zero-cost: the append proceeds untouched *)
let test_crash_disarm () =
  with_log @@ fun path ->
  let t = open_ok path in
  Store.inject_crash t (Store.Crash_after_bytes 3);
  Store.crash_disarm t;
  Alcotest.(check bool) "disarmed" false (Store.crash_armed t <> None);
  Alcotest.(check bool) "append proceeds" true
    (Store.append t ~key:(key_of "a") ~value:"alpha");
  Store.close t

(* the CI torture bar: 300 seeded append/crash/reopen cycles with the
   sharp invariants of Torture.verify at every reopen *)
let test_torture_300 () =
  with_log @@ fun path ->
  match Torture.run ~seed:2026 ~iterations:300 ~path () with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "all iterations ran" 300 r.Torture.iterations;
    Alcotest.(check bool) "every crash class actually fired" true
      (r.Torture.crashes_mid_write > 0
      && r.Torture.crashes_mid_header > 0
      && r.Torture.crashes_before_sync > 0
      && r.Torture.abandons > 0);
    Alcotest.(check bool) "torn tails were cut and accounted" true
      (r.Torture.torn_tails > 0 && r.Torture.torn_bytes > 0)

(* and the contract holds whatever the seed, not just the CI one *)
let prop_torture_any_seed =
  QCheck.Test.make ~name:"store: torture invariants hold for arbitrary seeds"
    ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let path = tmp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          match Torture.run ~seed ~iterations:40 ~path () with
          | Ok _ -> true
          | Error msg -> QCheck.Test.fail_report msg))

(* satellite: lazy-fsync durability — everything appended before an
   explicit sync must survive an abandoned handle, and the sync counter
   must reflect the policy (no syncs on Interval appends, none on Never) *)
let prop_interval_presync_survives =
  QCheck.Test.make
    ~name:"store: Interval fsync — synced prefix survives an abandoned handle"
    ~count:30
    QCheck.(pair (int_range 1 8) (int_range 0 6))
    (fun (pre, post) ->
      let path = tmp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let t = open_ok ~fsync:(Store.Interval 3600.) path in
          for i = 1 to pre do
            ignore
              (Store.append t
                 ~key:(key_of (Printf.sprintf "pre-%d" i))
                 ~value:(string_of_int i))
          done;
          if (Store.stats t).Store.syncs <> 0 then
            QCheck.Test.fail_report "Interval appends must not fsync";
          Store.sync t;
          if (Store.stats t).Store.syncs <> 1 then
            QCheck.Test.fail_report "explicit sync not counted";
          for i = 1 to post do
            ignore
              (Store.append t
                 ~key:(key_of (Printf.sprintf "post-%d" i))
                 ~value:(string_of_int i))
          done;
          Store.abandon t;
          let t = open_ok path in
          let ok = ref ((Store.stats t).Store.torn_truncations = 0) in
          for i = 1 to pre do
            if
              Store.find t (key_of (Printf.sprintf "pre-%d" i))
              <> Some (string_of_int i)
            then ok := false
          done;
          Store.close t;
          !ok))

let test_fsync_policy_counters () =
  with_log @@ fun path ->
  let t = open_ok path in
  ignore (Store.append t ~key:(key_of "a") ~value:"v");
  ignore (Store.append t ~key:(key_of "b") ~value:"v");
  Alcotest.(check int) "Always: one fsync per acked append" 2
    (Store.stats t).Store.syncs;
  Store.close t;
  with_log @@ fun path2 ->
  let t = open_ok ~fsync:Store.Never path2 in
  ignore (Store.append t ~key:(key_of "a") ~value:"v");
  Alcotest.(check int) "Never: appends issue no fsync" 0
    (Store.stats t).Store.syncs;
  Store.close t

(* QCheck: replay(append xs) == xs for arbitrary corpora *)
let prop_replay_recovers =
  let gen =
    QCheck.(
      small_list (pair (string_of_size (Gen.int_range 1 40)) printable_string))
  in
  QCheck.Test.make ~name:"store: reopen recovers exactly what was appended"
    ~count:60 gen (fun pairs ->
      (* distinct, non-empty keys: the log is content-addressed *)
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          if String.length k > 0 && not (Hashtbl.mem tbl k) then
            Hashtbl.add tbl k v)
        pairs;
      let path = tmp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let t = open_ok ~fsync:Store.Never path in
          Hashtbl.iter
            (fun k v -> ignore (Store.append t ~key:(key_of k) ~value:v))
            tbl;
          Store.close t;
          let t = open_ok ~fsync:Store.Never path in
          let ok = ref ((Store.stats t).Store.records = Hashtbl.length tbl) in
          Hashtbl.iter
            (fun k v ->
              if Store.find t (key_of k) <> Some v then ok := false)
            tbl;
          Store.close t;
          !ok))

(* Robustness: whatever bytes are on disk, open either refuses the file or
   recovers a prefix of what was appended, byte for byte.  A log of random
   records takes 1-5 overwrite/insert/delete edits anywhere, header
   included (a fifth of the edits aim at the 16 header bytes). *)
let prop_mutated_log_recovers_a_prefix =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) (string_size (int_bound 60)))
        (list_size (int_range 1 5)
           (triple (int_bound 2) (frequency [ (1, int_bound 15); (4, nat) ]) char)))
  in
  let print (values, edits) =
    Printf.sprintf "%d records, edits [%s]" (List.length values)
      (String.concat "; "
         (List.map (fun (k, pos, c) -> Printf.sprintf "%d@%d:%C" k pos c) edits))
  in
  QCheck.Test.make ~name:"store: a byte-mutated log opens to a prefix or is refused"
    ~count:300 (QCheck.make ~print gen) (fun (values, edits) ->
      let appended = List.mapi (fun i v -> (key_of (Printf.sprintf "k%d" i), v)) values in
      let path = tmp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let t = open_ok ~fsync:Store.Never path in
          List.iter (fun (key, value) -> ignore (Store.append t ~key ~value)) appended;
          Store.close t;
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (List.fold_left Byte_edit.edit bytes edits));
          match Store.open_ ~fsync:Store.Never path with
          | exception e ->
            QCheck.Test.fail_reportf "open_ raised %s" (Printexc.to_string e)
          | Error _ -> true
          | Ok t ->
            let k = (Store.stats t).Store.records in
            let iterated = ref 0 in
            Store.iter t (fun _ _ -> incr iterated);
            let ok =
              !iterated = k
              && List.for_all Fun.id
                   (List.mapi
                      (fun i (key, value) ->
                        Store.find t key = if i < k then Some value else None)
                      appended)
            in
            Store.close t;
            ok))

(* ---- CRC-32 and the recovery scan ------------------------------------ *)

module Crc32 = Ts_store.Crc32

(* The checksum bit by bit, without tables: the reference the
   slicing-by-8 code must agree with. *)
let crc_reference crc b off len =
  let c = ref (Int32.to_int crc land 0xffffffff) in
  for i = off to off + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int !c

let test_crc_known_answers () =
  Alcotest.(check int32) "CRC-32 of \"123456789\"" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "CRC-32 of the empty string" 0l (Crc32.string "");
  let rng = Random.State.make [| 2026 |] in
  let buf = Bytes.init 72 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for off = 0 to 7 do
    for len = 0 to 64 do
      Alcotest.(check int32)
        (Printf.sprintf "update at offset %d, length %d" off len)
        (crc_reference Crc32.init buf off len)
        (Crc32.update Crc32.init buf off len)
    done
  done

(* Any split of the input gives the one-shot checksum, from [update] and
   [update_string] alike. *)
let prop_crc_chaining =
  QCheck.Test.make ~name:"crc32: chained updates at any split points equal one shot"
    ~count:200
    QCheck.(pair (string_of_size (Gen.int_bound 300)) (small_list small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort compare (List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts) in
      let b = Bytes.of_string s in
      let chained_string, chained_bytes, last =
        List.fold_left
          (fun (cs, cb, from) cut ->
            ( Crc32.update_string cs s from (cut - from),
              Crc32.update cb b from (cut - from),
              cut ))
          (Crc32.init, Crc32.init, 0) cuts
      in
      let finish c = Crc32.finish (Crc32.update_string c s last (n - last)) in
      let one_shot = Crc32.string s in
      Int32.equal (finish chained_string) one_shot
      && Int32.equal (Crc32.finish (Crc32.update chained_bytes b last (n - last))) one_shot
      && Int32.equal (Crc32.update_string Crc32.init s 0 n) (Crc32.update Crc32.init b 0 n))

(* The checksum loop allocates nothing: over 1 MB, only the boxed int32
   result (3 words). *)
let test_crc_allocation () =
  let b = Bytes.init (1 lsl 20) (fun i -> Char.chr (i * 31 land 0xff)) in
  ignore (Crc32.update Crc32.init b 0 16);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Crc32.update Crc32.init b 0 (Bytes.length b)));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "update over 1 MB allocates at most its boxed result (%.0f words)" words)
    true (words <= 3.0)

(* A log whose records straddle the 64 KiB read buffers, one value larger
   than a buffer among them, and two small records last.  Returns the
   file's bytes and each record's (key, value, start offset). *)
let straddling_log path =
  let rng = Random.State.make [| 27 |] in
  let sizes =
    List.init 60 (fun i -> if i = 25 then 70_000 else Random.State.int rng 3_000) @ [ 40; 90 ]
  in
  let t = open_ok ~fsync:Store.Never path in
  let records =
    List.mapi
      (fun i size ->
        let key = Printf.sprintf "rec-%02d" i in
        let value = String.init size (fun j -> Char.chr (((i * 7) + j) land 0xff)) in
        let start = (Store.stats t).Store.bytes in
        ignore (Store.append t ~key:(key_of key) ~value);
        (key, value, start))
      sizes
  in
  Store.close t;
  (In_channel.with_open_bin path In_channel.input_all, Array.of_list records)

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Reopen a damaged log whose first [survivors] records are intact and end
   at [good_end]: exactly those records come back, the rest of the file is
   cut and counted, and the next append lands at [good_end]. *)
let check_recovery path records ~damaged_size ~survivors ~good_end =
  let t = open_ok ~fsync:Store.Never path in
  let s = Store.stats t in
  let what = Printf.sprintf "file of %d bytes" damaged_size in
  Alcotest.(check int) (what ^ ": recovered") survivors s.Store.recovered;
  Alcotest.(check int) (what ^ ": torn bytes") (damaged_size - good_end) s.Store.torn_bytes;
  Alcotest.(check int) (what ^ ": truncations")
    (if damaged_size > good_end then 1 else 0)
    s.Store.torn_truncations;
  Alcotest.(check int) (what ^ ": size") good_end s.Store.bytes;
  Alcotest.(check bool) (what ^ ": scan read the good prefix, no more than the file") true
    (s.Store.recovery_bytes >= good_end && s.Store.recovery_bytes <= damaged_size);
  Array.iteri
    (fun i (key, _, _) ->
      if Store.mem t (key_of key) <> (i < survivors) then
        Alcotest.failf "%s: record %d %s" what i
          (if i < survivors then "lost" else "survived its damage"))
    records;
  if survivors > 0 then begin
    let key, value, _ = records.(survivors - 1) in
    Alcotest.(check (option string)) (what ^ ": last survivor") (Some value)
      (Store.find t (key_of key))
  end;
  ignore (Store.append t ~key:(key_of "next") ~value:"after the damage");
  Alcotest.(check int) (what ^ ": next append at the good end")
    (good_end + String.length (Store.record_bytes ~key:"next" ~value:"after the damage"))
    (Store.stats t).Store.bytes;
  Alcotest.(check (option string)) (what ^ ": next append served") (Some "after the damage")
    (Store.find t (key_of "next"));
  Store.close t;
  Alcotest.(check int) (what ^ ": file size") (Store.stats t).Store.bytes (file_size path)

let test_recovery_every_cut () =
  with_log @@ fun path ->
  let bytes, records = straddling_log path in
  let n = Array.length records in
  let full = String.length bytes in
  let t = open_ok ~fsync:Store.Never path in
  Alcotest.(check int) "a clean scan reads the whole file" full
    (Store.stats t).Store.recovery_bytes;
  Store.close t;
  let ends =
    Array.map
      (fun (key, value, start) -> start + String.length (Store.record_bytes ~key ~value))
      records
  in
  let _, _, first_cut = records.(n - 2) in
  for cut = first_cut to full - 1 do
    write_file path (String.sub bytes 0 cut);
    let survivors = Array.fold_left (fun k e -> if e <= cut then k + 1 else k) 0 ends in
    let good_end = if survivors = 0 then String.length Store.header_bytes else ends.(survivors - 1) in
    check_recovery path records ~damaged_size:cut ~survivors ~good_end
  done

let test_recovery_crc_flips () =
  with_log @@ fun path ->
  let bytes, records = straddling_log path in
  let middle = 30 in
  let _, _, start = records.(middle) in
  for i = 8 to 11 do
    let b = Bytes.of_string bytes in
    Bytes.set b (start + i) (Char.chr (Char.code (Bytes.get b (start + i)) lxor 0xff));
    write_file path (Bytes.to_string b);
    check_recovery path records ~damaged_size:(String.length bytes) ~survivors:middle
      ~good_end:start
  done

(* Whatever follows a valid file header, open returns [Ok] without raising
   and keeps exactly the longest prefix of intact records, checked here
   with the bitwise reference CRC. *)
let reference_prefix s =
  let b = Bytes.of_string s and n = String.length s in
  let u32 o = Bytes.get_int32_le b o |> Int32.to_int |> ( land ) 0xffffffff in
  let rec go off count =
    if off + Store.record_header_len > n then (off, count)
    else
      let klen = u32 off and vlen = u32 (off + 4) in
      let next = off + Store.record_header_len + klen + vlen in
      if klen < 1 || klen > Store.max_key_bytes || vlen > Store.max_value_bytes || next > n then
        (off, count)
      else
        let crc = crc_reference (crc_reference Crc32.init b off 8) b (off + 12) (klen + vlen) in
        if Int32.to_int (Crc32.finish crc) land 0xffffffff <> u32 (off + 8) then (off, count)
        else go next (count + 1)
  in
  go (String.length Store.header_bytes) 0

let prop_random_tail =
  let segment =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> Store.record_bytes ~key:k ~value:v)
            (string_size (int_range 1 20)) (string_size (int_bound 200));
          string_size (int_bound 40);
          (* a plausible header with small lengths and a wrong CRC *)
          map2 (fun (k, v) body -> Store.record_bytes ~key:k ~value:v |> fun r ->
                 String.sub r 0 8 ^ "\xde\xad\xbe\xef" ^ String.sub r 12 (String.length r - 12) ^ body)
            (pair (string_size (int_range 1 8)) (string_size (int_bound 30)))
            (string_size (int_bound 10));
        ])
  in
  let gen = QCheck.Gen.(map (String.concat "") (list_size (int_bound 6) segment)) in
  QCheck.Test.make ~name:"store: random bytes after a valid header open to a record boundary"
    ~count:300 (QCheck.make ~print:String.escaped gen) (fun tail ->
      let bytes = Store.header_bytes ^ tail in
      let good_end, count = reference_prefix bytes in
      let path = tmp_path () in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          write_file path bytes;
          match Store.open_ ~fsync:Store.Never path with
          | exception e -> QCheck.Test.fail_reportf "open_ raised %s" (Printexc.to_string e)
          | Error msg -> QCheck.Test.fail_reportf "open_ refused: %s" msg
          | Ok t ->
            let s = Store.stats t in
            Store.close t;
            s.Store.recovered = count && s.Store.bytes = good_end
            && file_size path = good_end
            && s.Store.torn_bytes = String.length bytes - good_end))

let suite =
  ( "store",
    [
      Alcotest.test_case "roundtrip through reopen" `Quick test_roundtrip;
      Alcotest.test_case "idempotent append" `Quick test_idempotent_append;
      Alcotest.test_case "torn tail truncated, survivors served" `Quick
        test_torn_tail_truncated;
      Alcotest.test_case "checksum damage drops the tail" `Quick
        test_crc_damage_drops_tail;
      Alcotest.test_case "foreign and future files refused" `Quick
        test_foreign_and_future_files_refused;
      Alcotest.test_case "fsync policy drives the sync counter" `Quick
        test_fsync_policy_counters;
      Alcotest.test_case "crash-point: torn mid-record" `Quick
        test_crash_after_bytes;
      Alcotest.test_case "crash-point: torn mid-header" `Quick
        test_crash_mid_header;
      Alcotest.test_case "crash-point: before the fsync" `Quick
        test_crash_before_sync;
      Alcotest.test_case "crash-point: disarm is a no-op" `Quick
        test_crash_disarm;
      Alcotest.test_case "torture: 300 seeded crash/reopen cycles" `Quick
        test_torture_300;
      QCheck_alcotest.to_alcotest prop_torture_any_seed;
      QCheck_alcotest.to_alcotest prop_interval_presync_survives;
      QCheck_alcotest.to_alcotest prop_replay_recovers;
      QCheck_alcotest.to_alcotest prop_mutated_log_recovers_a_prefix;
      Alcotest.test_case "crc32: known answers and the bitwise reference" `Quick
        test_crc_known_answers;
      QCheck_alcotest.to_alcotest prop_crc_chaining;
      Alcotest.test_case "crc32: update allocates only its result" `Quick
        test_crc_allocation;
      Alcotest.test_case "recovery: every cut inside the last two records" `Quick
        test_recovery_every_cut;
      Alcotest.test_case "recovery: each flipped CRC byte of a middle record" `Quick
        test_recovery_crc_flips;
      QCheck_alcotest.to_alcotest prop_random_tail;
    ] )
