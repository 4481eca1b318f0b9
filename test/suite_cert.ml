(* Witness certificates and the independent micro-checker.

   The contract under test: every certificate the engine emits passes
   both the stdlib-only micro-checker and the engine-side replay, and
   every mutation of a certificate — any single byte, a reattributed
   schedule step, a rewritten verdict (even with a freshly forged
   digest), a zeroed digest — is rejected. *)

module Cert = Ts_cert.Cert
module Microcheck = Ts_microcheck.Microcheck
module J = Ts_microcheck.Microcheck.Json
module Explore = Ts_checker.Explore
module Theorem = Ts_core.Theorem
module Broken = Ts_protocols.Broken
module Value = Ts_model.Value

let ok_or_fail what = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" what e

let kind_of cert =
  match J.member "kind" (Cert.to_json cert) with
  | Some (J.Str k) -> k
  | _ -> Alcotest.fail "certificate has no kind field"

(* The two format-version pins must move together; the digest golden in
   suite_digest pins the serialized header as well. *)
let test_version_pin () =
  Alcotest.(check int) "cert_version" 1 Cert.cert_version;
  Alcotest.(check int) "micro-checker supports it" Cert.cert_version
    Microcheck.supported_cert_version

let racing_theorem_cert () =
  let proto = Ts_protocols.Racing.make ~n:2 in
  match Theorem.theorem1_escalate proto ~initial_horizon:8 with
  | Theorem.Complete c, _ -> (proto, Cert.of_theorem proto c)
  | Theorem.Partial _, _ ->
      Alcotest.fail "racing n=2 Theorem 1 should complete unbudgeted"

let test_theorem_roundtrip () =
  let proto, cert = racing_theorem_cert () in
  Alcotest.(check string) "kind" "space_bound" (kind_of cert);
  ok_or_fail "micro-checker" (Cert.microcheck cert);
  ok_or_fail "engine replay" (Cert.validate proto cert);
  let s = Cert.to_string cert in
  let reparsed = ok_or_fail "reparse" (Cert.of_string s) in
  Alcotest.(check string) "serialization roundtrip" s (Cert.to_string reparsed)

(* One certificate per violation kind, each from the protocol family
   built to exhibit it. *)
let violation_of what (r : Explore.result) =
  match r.Explore.verdict with
  | Error v -> v
  | Ok () -> Alcotest.failf "%s: expected a violation" what

let agreement_witness () =
  let proto = Broken.last_write_wins ~n:2 in
  ( Ts_model.Protocol.Packed proto,
    Cert.of_violation proto
      (violation_of "broken-lww"
         (Explore.check_consensus proto
            ~inputs_list:(Explore.binary_inputs 2)
            ~max_configs:20_000 ~max_depth:40 ~solo_budget:200
            ~check_solo:false)) )

let validity_witness () =
  let proto = Broken.oblivious_seven ~n:2 in
  ( Ts_model.Protocol.Packed proto,
    Cert.of_violation proto
      (violation_of "oblivious-seven"
         (Explore.check_consensus proto
            ~inputs_list:(Explore.binary_inputs 2)
            ~max_configs:20_000 ~max_depth:40 ~solo_budget:200
            ~check_solo:false)) )

let solo_witness () =
  let proto = Broken.wait_for_all ~n:2 in
  ( Ts_model.Protocol.Packed proto,
    Cert.of_violation proto
      (violation_of "wait-for-all solo"
         (Explore.check_consensus proto
            ~inputs_list:(Explore.binary_inputs 2)
            ~max_configs:20_000 ~max_depth:40 ~solo_budget:200
            ~check_solo:true)) )

let resilience_witness () =
  let proto = Broken.wait_for_all ~n:2 in
  ( Ts_model.Protocol.Packed proto,
    Cert.of_violation proto
      (violation_of "wait-for-all crash"
         (Explore.check_t_resilient ~t:1 proto
            ~inputs_list:(Explore.binary_inputs 2)
            ~max_configs:20_000 ~max_depth:40 ~solo_budget:200)) )

let test_violation_roundtrips () =
  List.iter
    (fun (expected_kind, make) ->
      let Ts_model.Protocol.Packed proto, cert = make () in
      Alcotest.(check string) "kind" expected_kind (kind_of cert);
      ok_or_fail (expected_kind ^ " micro-checker") (Cert.microcheck cert);
      ok_or_fail (expected_kind ^ " engine replay") (Cert.validate proto cert);
      let s = Cert.to_string cert in
      ok_or_fail (expected_kind ^ " from bytes") (Cert.microcheck_string s))
    [
      ("agreement", agreement_witness);
      ("validity", validity_witness);
      ("solo-termination", solo_witness);
      ("resilience", resilience_witness);
    ]

(* Tampering.  The resigned mutants carry a correct digest, so their
   rejection proves the checker replays rather than just hashing. *)
let edit_field name f cert =
  match Cert.to_json cert with
  | J.Obj kvs ->
      Cert.of_json
        (J.Obj (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) kvs))
  | _ -> Alcotest.fail "certificate is not an object"

let reject what s =
  match Microcheck.check_string s with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: tampered certificate was ACCEPTED" what

let test_tamper_rejection () =
  let _, cert = racing_theorem_cert () in
  let tampered_schedule = function
    | J.List (J.Obj ev :: rest) ->
        J.List
          (J.Obj
             (List.map
                (fun (k, v) ->
                  match (k, v) with
                  | "p", J.Int p -> (k, J.Int (p + 1))
                  | kv -> kv)
                ev)
          :: rest)
    | other -> other
  in
  reject "schedule tamper, forged digest"
    (Cert.to_string (Cert.resign (edit_field "schedule" tampered_schedule cert)));
  reject "verdict tamper, forged digest"
    (Cert.to_string (Cert.resign (edit_field "claim" (fun _ -> J.Obj []) cert)));
  reject "zeroed digest"
    (Cert.to_string
       (edit_field "digest" (fun _ -> J.Str (String.make 16 '0')) cert));
  (* and the honest original still passes after all that copying *)
  ok_or_fail "untampered control" (Cert.microcheck cert)

(* Any single flipped byte — anywhere in the document — must be caught,
   by the parser, the digest, the replay or the claim check. *)
let test_byte_flip_property () =
  let _, cert = racing_theorem_cert () in
  let s = Cert.to_string cert in
  let test =
    QCheck2.Test.make ~count:200 ~name:"any byte flip is rejected"
      QCheck2.Gen.(pair (int_bound (String.length s - 1)) (int_range 1 255))
      (fun (i, mask) ->
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        Result.is_error (Microcheck.check_string (Bytes.to_string b)))
  in
  QCheck2.Test.check_exn test

(* Whatever violation the engine finds under whatever bounds, the
   certificate built from it certifies: randomize the protocol and the
   exploration bounds, require micro-checker + replay acceptance. *)
let test_engine_witnesses_certify () =
  let protos =
    [|
      ("broken-lww", fun n -> Ts_model.Protocol.Packed (Broken.last_write_wins ~n));
      ("broken-max", fun n -> Ts_model.Protocol.Packed (Broken.naive_max ~n));
      ("oblivious-seven", fun n -> Ts_model.Protocol.Packed (Broken.oblivious_seven ~n));
      ("wait-for-all", fun n -> Ts_model.Protocol.Packed (Broken.wait_for_all ~n));
    |]
  in
  let test =
    QCheck2.Test.make ~count:25 ~name:"any engine witness certifies"
      QCheck2.Gen.(triple (int_bound (Array.length protos - 1)) (int_range 8 40)
                     (int_range 2 3))
      (fun (pi, max_depth, n) ->
        let _, make = protos.(pi) in
        let (Ts_model.Protocol.Packed proto) = make n in
        let r =
          Explore.check_consensus proto ~inputs_list:(Explore.binary_inputs n)
            ~max_configs:20_000 ~max_depth ~solo_budget:100 ~check_solo:true
        in
        match r.Explore.verdict with
        | Ok () -> true (* bounds too tight to expose the bug: vacuous *)
        | Error v ->
            let cert = Cert.of_violation proto v in
            Result.is_ok (Cert.microcheck cert)
            && Result.is_ok (Cert.validate proto cert))
  in
  QCheck2.Test.check_exn test

(* Theorem 1 at n = 4: from horizon 40 both racing variants deepen once
   and complete at 80, and their certificates are pinned byte for byte.
   The pins are the bytes of the oracle that answered every yes/no
   valency question with a P-wide search; answering them from members'
   solo witnesses must not move a byte. *)
let test_n4_certificates_pinned () =
  List.iter
    (fun (name, proto, len, md5) ->
      match Theorem.theorem1_escalate proto ~initial_horizon:40 with
      | Theorem.Complete c, horizon ->
        Alcotest.(check int) (name ^ ": completing horizon") 80 horizon;
        let cert = Cert.of_theorem proto c in
        ok_or_fail (name ^ ": micro-checker") (Cert.microcheck cert);
        let s = Cert.to_string cert in
        Alcotest.(check int) (name ^ ": certificate length") len (String.length s);
        Alcotest.(check string) (name ^ ": certificate MD5") md5
          (Digest.to_hex (Digest.string s))
      | Theorem.Partial _, _ -> Alcotest.failf "%s: Theorem 1 did not complete" name)
    [
      ("racing-4", Ts_protocols.Racing.make ~n:4, 4_013, "aef0438a55378b1c50740dbbe291dcc1");
      ( "racing-rand-4",
        Ts_protocols.Racing.make_randomized ~n:4,
        5_680,
        "d061eafc62436fc84fb98485a634ed0f" );
    ]

let suite =
  ( "cert",
    [
      Alcotest.test_case "format version pinned" `Quick test_version_pin;
      Alcotest.test_case "theorem certificate roundtrip" `Quick
        test_theorem_roundtrip;
      Alcotest.test_case "violation certificates roundtrip" `Quick
        test_violation_roundtrips;
      Alcotest.test_case "tampered certificates rejected" `Quick
        test_tamper_rejection;
      Alcotest.test_case "byte flips rejected (property)" `Quick
        test_byte_flip_property;
      Alcotest.test_case "engine witnesses certify (property)" `Slow
        test_engine_witnesses_certify;
      Alcotest.test_case "n = 4 theorem certificates pinned" `Quick
        test_n4_certificates_pinned;
    ] )
