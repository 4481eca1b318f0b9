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
    ] )
