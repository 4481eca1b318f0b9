(* Cache-key digest stability.

   The service cache and every Ckey-keyed table identify engine answers by
   packed-configuration digests.  Those digests are pure functions of the
   component encodings (Ckey's varints, Value.encode, protocol state
   encoders) and of Dispatch's request packing — so any change to an
   encoding silently REKEYS EVERY CACHE without anyone noticing, unless a
   test pins the bytes.  This suite pins them: golden hex digests for

     - the packed initial configuration of every registry protocol, and
     - the service cache key of a canonical witness request per catalog
       name.

   If a check here fails and the encoding change is intentional, bump
   Ts_service.Dispatch.cache_version and refresh the goldens below —
   stale cache entries from older builds must not be served under the new
   encoding. *)

open Ts_model
module Registry = Ts_analysis.Registry
module Dispatch = Ts_service.Dispatch
module Request = Ts_service.Request
module Store = Ts_store.Store

let bump_hint = "digest changed — bump Ts_service.Dispatch.cache_version and refresh goldens: "
let store_bump_hint = "on-disk layout changed — bump Ts_store.Store.store_version and refresh goldens: "

(* Golden digests of Config.initial over each registry entry's first
   declared input vector. *)
let config_goldens =
  [
    ("racing", "52000053000000000052020053000000000000000000");
    ("racing-rand", "52000053000000000052020053000000000000000000");
    ("swap", "52530052530000");
    ("kset", "520000005300000000005200080053000000000052020000530000000000000000000000");
    ("multivalued", "5200000050520200005000000000000000000000");
    ("swap-chain", "52530052530052530000");
    ("broken-lww", "524c0000524c000000");
    ("broken-max", "524d00000000524d020000000000");
    ("broken-const", "52430e52430e00");
    ("broken-spin", "525a525a00");
    ("broken-wait", "52410000524102000000");
    ("broken-rogue", "525200005252000000");
    ("broken-scribbler", "524200003052420200300000");
  ]

(* Golden service cache keys for a default witness request per catalog
   name ([n] = 2 where the protocol requires it, else 3).  Regenerated at
   cache_version 2, which added the certificate flag to the key. *)
let request_goldens =
  [
    ("racing", "040e7769746e6573730c726163696e670601d41fc0a90750d804020200");
    ("racing-rand", "040e7769746e65737316726163696e672d72616e640601d41fc0a90750d804020200");
    ("swap", "040e7769746e65737308737761700401d41fc0a90750d804020200");
    ("kset", "040e7769746e657373086b7365740601d41fc0a90750d804020200");
    ("multivalued", "040e7769746e657373166d756c746976616c7565640601d41fc0a90750d804020200");
    ("swap-chain", "040e7769746e65737314737761702d636861696e0601d41fc0a90750d804020200");
    ("broken-lww", "040e7769746e6573731462726f6b656e2d6c77770601d41fc0a90750d804020200");
    ("broken-max", "040e7769746e6573731462726f6b656e2d6d61780601d41fc0a90750d804020200");
    ("broken-const", "040e7769746e6573731862726f6b656e2d636f6e73740601d41fc0a90750d804020200");
    ("broken-spin", "040e7769746e6573731662726f6b656e2d7370696e0601d41fc0a90750d804020200");
    ("broken-wait", "040e7769746e6573731662726f6b656e2d776169740601d41fc0a90750d804020200");
    ("broken-rogue", "040e7769746e6573731862726f6b656e2d726f6775650601d41fc0a90750d804020200");
    ("broken-scribbler", "040e7769746e6573732062726f6b656e2d7363726962626c65720601d41fc0a90750d804020200");
  ]

let config_digest (e : Registry.entry) =
  match e.Registry.protocol with
  | Protocol.Packed proto ->
    let inputs =
      match e.Registry.inputs_list with
      | inputs :: _ -> inputs
      | [] -> Alcotest.failf "%s: registry entry declares no inputs" e.Registry.cli_name
    in
    Ckey.to_hex (Ckey.pack (Ckey.packer proto) (Config.initial proto ~inputs))

let test_version_pinned () =
  (* when this fails you bumped the version: refresh every golden here *)
  Alcotest.(check int) "Dispatch.cache_version matches the goldens" 2
    Dispatch.cache_version

let test_registry_covered () =
  let names = List.map (fun (e : Registry.entry) -> e.Registry.cli_name) (Registry.all ()) in
  Alcotest.(check (list string)) "every registry entry has a golden digest"
    names (List.map fst config_goldens)

let test_config_digests () =
  List.iter
    (fun (name, golden) ->
      match Registry.find name with
      | None -> Alcotest.failf "golden names unknown registry entry %s" name
      | Some e ->
        Alcotest.(check string) (bump_hint ^ "initial config of " ^ name) golden
          (config_digest e))
    config_goldens

let test_catalog_covered () =
  Alcotest.(check (list string)) "every catalog name has a request golden"
    (Ts_protocols.Catalog.names ())
    (List.map fst request_goldens)

let test_request_digests () =
  List.iter
    (fun (name, golden) ->
      let n = if name = "swap" then 2 else 3 in
      let req = { Request.defaults with Request.op = Request.Witness; protocol = name; n } in
      Alcotest.(check string) (bump_hint ^ "witness request on " ^ name) golden
        (Dispatch.cache_key_hex req))
    request_goldens

let test_request_digest_sensitivity () =
  (* the key must react to every result-determining field and to none of
     the budget fields *)
  let base = { Request.defaults with Request.op = Request.Check } in
  let key r = Dispatch.cache_key_hex r in
  let differs name r =
    Alcotest.(check bool) (name ^ " changes the digest") false (key base = key r)
  in
  differs "op" { base with Request.op = Request.Resilient };
  differs "protocol" { base with Request.protocol = "swap-chain" };
  differs "n" { base with Request.n = base.Request.n + 1 };
  differs "horizon" { base with Request.horizon = Some 17 };
  differs "seed" { base with Request.seed = base.Request.seed + 1 };
  differs "max_configs" { base with Request.max_configs = 123 };
  differs "max_depth" { base with Request.max_depth = 7 };
  differs "solo_budget" { base with Request.solo_budget = 11 };
  differs "check_solo" { base with Request.check_solo = not base.Request.check_solo };
  differs "t_faults" { base with Request.t_faults = 2 };
  differs "certificate" { base with Request.certificate = true };
  Alcotest.(check string) "deadline is NOT cache-key material (partials are never cached)"
    (key base)
    (key { base with Request.deadline = Some 1.0 });
  Alcotest.(check string) "max_nodes is NOT cache-key material" (key base)
    (key { base with Request.max_nodes = Some 99 });
  Alcotest.(check string) "id is NOT cache-key material" (key base)
    (key { base with Request.id = 424242 })

(* The witness log's byte layout is cache-key discipline extended to disk:
   a log written by one build must be readable (or loudly refused) by the
   next.  [header_bytes] and [record_bytes] are pure functions of the
   format, so pinning their hex pins the layout; any intentional change
   must bump Store.store_version so old logs are refused, not misread. *)

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.init (String.length s) (String.get s)))

(* The certificate header is wire format too: auditors parse it with
   checkers built from docs/CERTIFICATES.md, not from this tree.  If this
   fails and the change is intentional, bump Ts_cert.Cert.cert_version
   (and Ts_microcheck.Microcheck.supported_cert_version with it) and
   refresh the golden. *)
let cert_bump_hint =
  "certificate serialization changed — bump Ts_cert.Cert.cert_version and \
   Microcheck.supported_cert_version, then refresh: "

let test_cert_header_golden () =
  let proto = Ts_protocols.Racing.make ~n:2 in
  match Ts_core.Theorem.theorem1_escalate proto ~initial_horizon:8 with
  | Ts_core.Theorem.Complete c, _ ->
    let s = Ts_cert.Cert.to_string (Ts_cert.Cert.of_theorem proto c) in
    Alcotest.(check string) (cert_bump_hint ^ "header")
      ({|{"cert_version":1,"kind":"space_bound","protocol":{"name":"racing-2",|}
       ^ {|"n":2,"registers":4},"inputs":[0,1],"schedule":[{"p|})
      (String.sub s 0 120);
    Alcotest.(check int) (cert_bump_hint ^ "racing-2 certificate length") 941
      (String.length s)
  | Ts_core.Theorem.Partial _, _ ->
    Alcotest.fail "racing n=2 Theorem 1 should complete unbudgeted"

let test_store_version_pinned () =
  Alcotest.(check int) "Store.store_version matches the goldens" 1
    Store.store_version

let test_store_header_bytes () =
  Alcotest.(check string) (store_bump_hint ^ "file header")
    "54535749544c4f470100000000000000"
    (hex Store.header_bytes)

let test_store_record_bytes () =
  (* pins the full record framing: LE u32 lengths, zlib-compatible CRC-32
     over lengths‖key‖value, then the raw payloads *)
  Alcotest.(check string) (store_bump_hint ^ "record encoding")
    "010000000d0000006bcc9ae26b7b22706f6e67223a747275657d"
    (hex (Store.record_bytes ~key:"k" ~value:"{\"pong\":true}"))

(* Served check/resilient answers are wire format: the cache and the store
   persist these exact bytes, and [check --json] prints them.  Pinning an
   MD5 of [Response.explore_to_json] for two racing-3 searches pins every
   verdict and every stats field, so an engine change that shifts a
   counter (a probe count, a table hit) fails here.
   No process decides within these bounds, so the check (one probe per
   undecided process) and the t=2 search (one per 2-crash set) run the same
   three probes per configuration and serve the same bytes.  The third pin
   starves the probes (solo budget 5), so its answer carries a violation
   schedule. *)
let test_explore_wire_digests () =
  let module Explore = Ts_checker.Explore in
  let d = Request.defaults in
  let proto = Ts_protocols.Racing.make ~n:3 in
  let inputs_list = Explore.binary_inputs 3 in
  let pinned name golden result =
    let wire = Ts_analysis.Json.to_string (Ts_service.Response.explore_to_json result) in
    Alcotest.(check string) ("served answer bytes of " ^ name) golden
      (Digest.to_hex (Digest.string wire))
  in
  pinned "check racing-3, max_configs 400" "5ffb7c35c6b5b6e86e2b57195316b341"
    (Explore.check_consensus proto ~inputs_list ~max_configs:400
       ~max_depth:d.Request.max_depth ~solo_budget:d.Request.solo_budget
       ~check_solo:d.Request.check_solo);
  pinned "resilient racing-3, t=2, max_configs 400" "5ffb7c35c6b5b6e86e2b57195316b341"
    (Explore.check_t_resilient proto ~t:2 ~inputs_list ~max_configs:400
       ~max_depth:d.Request.max_depth ~solo_budget:d.Request.solo_budget);
  pinned "check racing-3, solo_budget 5" "25a43d7a75a3d1adbbf0643d188602b3"
    (Explore.check_consensus proto ~inputs_list ~max_configs:400
       ~max_depth:d.Request.max_depth ~solo_budget:5 ~check_solo:true)

let suite =
  ( "digest-stability",
    [
      Alcotest.test_case "cache_version pinned to goldens" `Quick test_version_pinned;
      Alcotest.test_case "every registry entry covered" `Quick test_registry_covered;
      Alcotest.test_case "initial-config digests" `Quick test_config_digests;
      Alcotest.test_case "every catalog name covered" `Quick test_catalog_covered;
      Alcotest.test_case "witness-request cache keys" `Quick test_request_digests;
      Alcotest.test_case "key sensitivity (and budget exclusion)" `Quick
        test_request_digest_sensitivity;
      Alcotest.test_case "store_version pinned to goldens" `Quick
        test_store_version_pinned;
      Alcotest.test_case "store file header bytes" `Quick test_store_header_bytes;
      Alcotest.test_case "store record encoding bytes" `Quick
        test_store_record_bytes;
      Alcotest.test_case "certificate header golden" `Quick
        test_cert_header_golden;
      Alcotest.test_case "served check/resilient answer bytes" `Quick
        test_explore_wire_digests;
    ] )
