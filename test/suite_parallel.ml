(* The packed-key + domain-parallel engine: parallel runs must be
   bit-identical to serial ones, and key packing must be injective. *)
open Ts_model
open Ts_checker
open Ts_protocols
module Obs = Ts_obs.Obs

(* --- differential: check_set_agreement serial vs domains:4 ------------- *)

let same_result name (a : Explore.result) (b : Explore.result) =
  Alcotest.(check bool) (name ^ ": same verdict") true (a.Explore.verdict = b.Explore.verdict);
  Alcotest.(check bool) (name ^ ": same stats") true (a.Explore.stats = b.Explore.stats)

let differential ?(k = 1) name proto ~inputs_list ~max_configs ~max_depth ~solo_budget
    ~check_solo () =
  let run domains =
    Explore.check_set_agreement ~domains ~k proto ~inputs_list ~max_configs ~max_depth
      ~solo_budget ~check_solo
  in
  same_result name (run 1) (run 4)

let test_diff_racing () =
  differential "racing-2" (Racing.make ~n:2)
    ~inputs_list:(Explore.binary_inputs 2) ~max_configs:3_000 ~max_depth:25
    ~solo_budget:60 ~check_solo:false ()

let test_diff_broken () =
  (* a violating protocol: the parallel fold must report the same first
     violation (in input order) as the serial early-exit *)
  differential "broken last-write-wins" (Broken.last_write_wins ~n:2)
    ~inputs_list:(Explore.binary_inputs 2) ~max_configs:10_000 ~max_depth:30
    ~solo_budget:50 ~check_solo:true ()

let test_diff_multivalued () =
  differential "multivalued-2x2"
    (Multivalued.make ~n:2 ~bits:2)
    ~inputs_list:[ [| Value.int 0; Value.int 3 |]; [| Value.int 2; Value.int 1 |] ]
    ~max_configs:3_000 ~max_depth:25 ~solo_budget:60 ~check_solo:false ()

let test_diff_kset () =
  differential ~k:2 "kset-3-2" (Kset.make ~n:3 ~k:2)
    ~inputs_list:(Explore.binary_inputs 3) ~max_configs:2_000 ~max_depth:20
    ~solo_budget:40 ~check_solo:false ()

(* --- differential: the joint valency search ---------------------------- *)

module Valency = Ts_core.Valency

(* [classify]'s joint search against a fresh oracle per probe: same
   verdict, same witnesses, and the max (not the sum) of the two probes'
   dequeued nodes, on every registry protocol's initial configurations
   over every non-empty participant set.  A protocol whose step raises
   (the rogue writer) must raise from the joint search exactly when a
   probe does, since both dequeue the same FIFO order. *)
let test_joint_valency () =
  let outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e) in
  List.iter
    (fun (e : Ts_analysis.Registry.entry) ->
      let (Protocol.Packed proto) = e.Ts_analysis.Registry.protocol in
      let n = proto.Protocol.num_processes in
      List.iter
        (fun inputs ->
          let i0 = Config.initial proto ~inputs in
          for mask = 1 to (1 lsl n) - 1 do
            let ps = Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) in
            let probe v =
              let t = Valency.create proto ~horizon:30 in
              let w = outcome (fun () -> Valency.can_decide t i0 ps v) in
              w, (Valency.stats t).Valency.nodes_expanded
            in
            let w0, n0 = probe Valency.zero in
            let w1, n1 = probe Valency.one in
            let expected =
              match w0, w1 with
              | Error m, _ | _, Error m -> Error m
              | Ok (Some w0), Ok (Some w1) -> Ok (Valency.Bivalent (w0, w1))
              | Ok (Some w0), Ok None -> Ok (Valency.Univalent (Valency.zero, w0))
              | Ok None, Ok (Some w1) -> Ok (Valency.Univalent (Valency.one, w1))
              | Ok None, Ok None -> Ok Valency.Blocked
            in
            let t = Valency.create proto ~horizon:30 in
            let name =
              Fmt.str "%s %a ps=%a" e.Ts_analysis.Registry.cli_name
                Fmt.(array ~sep:(any ",") Value.pp) inputs Pset.pp ps
            in
            let got = outcome (fun () -> Valency.classify t i0 ps) in
            Alcotest.(check bool) (name ^ ": verdict and witnesses") true (got = expected);
            if Result.is_ok got then begin
              let s = Valency.stats t in
              Alcotest.(check int) (name ^ ": one search") 1 s.Valency.searches;
              Alcotest.(check int) (name ^ ": nodes = max of probes") (max n0 n1)
                s.Valency.nodes_expanded
            end
          done)
        e.Ts_analysis.Registry.inputs_list)
    (Ts_analysis.Registry.all ())

(* exact work counts on racing-3 at horizon 30: Theorem 1, the joint
   search behind [classify], and [is_bivalent]'s boolean path, which
   answers the same question from the members' solo probes *)
let test_joint_valency_counts () =
  let proto = Racing.make ~n:3 in
  let t = Valency.create proto ~horizon:30 in
  ignore (Ts_core.Theorem.theorem1 t);
  let s = Valency.stats t in
  Alcotest.(check int) "theorem1 searches" 28 s.Valency.searches;
  Alcotest.(check int) "theorem1 nodes" 1_543 s.Valency.nodes_expanded;
  Alcotest.(check int) "theorem1 peak frontier" 111 s.Valency.peak_frontier;
  let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
  let t = Valency.create proto ~horizon:30 in
  (match Valency.classify t i0 (Pset.all 3) with
   | Valency.Bivalent _ -> ()
   | _ -> Alcotest.fail "initial configuration not classified bivalent");
  let s = Valency.stats t in
  Alcotest.(check int) "classify searches" 1 s.Valency.searches;
  Alcotest.(check int) "classify nodes" 17_391 s.Valency.nodes_expanded;
  Alcotest.(check int) "classify peak frontier" 3_714 s.Valency.peak_frontier;
  let t = Valency.create proto ~horizon:30 in
  Alcotest.(check bool) "initial configuration bivalent" true
    (Valency.is_bivalent t i0 (Pset.all 3));
  let s = Valency.stats t in
  (* p0 decides 0 alone; p0 cannot decide 1 alone, p1 can *)
  Alcotest.(check int) "is_bivalent searches (solo probes)" 3 s.Valency.searches;
  Alcotest.(check int) "is_bivalent nodes" 87 s.Valency.nodes_expanded;
  Alcotest.(check int) "is_bivalent peak frontier" 1 s.Valency.peak_frontier

(* --- fault containment in the domain fan-out --------------------------- *)

exception Boom of int

let boom_at_multiples_of k x = if x mod k = 0 then raise (Boom x) else x * 10

let test_exception_ordering_matches_serial () =
  (* several items raise: the parallel map must surface the exception of
     the earliest item, exactly as a serial left-to-right map would *)
  let xs = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let observe run = match run () with _ -> None | exception Boom v -> Some v in
  let serial = observe (fun () -> List.map (boom_at_multiples_of 3) xs) in
  Alcotest.(check (option int)) "serial raises at 3" (Some 3) serial;
  List.iter
    (fun domains ->
      Alcotest.(check (option int))
        (Printf.sprintf "domains:%d raises the same" domains)
        serial
        (observe (fun () -> Par.map_list ~domains (boom_at_multiples_of 3) xs)))
    [ 1; 2; 4; 8 ]

let test_outcomes_keep_sibling_results () =
  let xs = [ 1; 2; 3; 4; 5; 6 ] in
  let expected =
    List.map
      (fun x -> match boom_at_multiples_of 3 x with v -> Ok v | exception e -> Error e)
      xs
  in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "domains:%d per-item outcomes" domains)
        true
        (Par.map_list_outcomes ~domains (boom_at_multiples_of 3) xs = expected))
    [ 1; 4 ]

let test_no_domain_leak_on_raise () =
  (* a raising worker must not leak its domain: after many raising rounds
     the runtime can still spawn fresh domains and map correctly *)
  for _ = 1 to 40 do
    (try ignore (Par.map_list ~domains:4 (boom_at_multiples_of 2) [ 1; 2; 3; 4 ])
     with Boom _ -> ());
    ignore (Par.map_list_outcomes ~domains:4 (boom_at_multiples_of 2) [ 1; 2; 3; 4 ])
  done;
  Alcotest.(check (list int)) "engine still healthy" [ 10; 30 ]
    (Par.map_list ~domains:4 (fun x -> x * 10) [ 1; 3 ])

let prop_outcomes_match_serial =
  QCheck.Test.make ~name:"par: map_list_outcomes = serial try/with" ~count:40
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, domains) ->
      let f = boom_at_multiples_of 5 in
      let expected = List.map (fun x -> match f x with v -> Ok v | exception e -> Error e) xs in
      Par.map_list_outcomes ~domains f xs = expected)

(* --- the sharded result cache under multi-domain load ------------------ *)

(* Deterministic "engine work" stand-in keyed by a small key space, so
   hits, misses and evictions all occur (capacity < distinct keys). *)
let cache_key i = Ckey.of_string (Printf.sprintf "hammer-key-%d" (i mod 24))
let cache_value i = (i mod 24) * 1000 + String.length "hammer"

let test_cache_hammer () =
  let cache = Ts_core.Cache.create ~name:"hammer" ~capacity:16 () in
  Obs.start_accesses ();
  let outcomes =
    Par.map_list ~domains:4
      (fun d ->
        List.init 120 (fun j ->
            let i = (d * 31) + j in
            let got =
              match Ts_core.Cache.find cache (cache_key i) with
              | Some v -> v
              | None ->
                (* a miss computes with no lock held, then inserts *)
                let v = cache_value i in
                Ts_core.Cache.put cache (cache_key i) v;
                v
            in
            got = cache_value i))
      [ 0; 1; 2; 3 ]
  in
  let events = Obs.stop_accesses () in
  (* every answer — fresh, cached or recomputed-after-eviction — equals
     the uncached recomputation *)
  Alcotest.(check bool) "all values correct under contention" true
    (List.for_all (List.for_all Fun.id) outcomes);
  let stats = Ts_core.Cache.stats cache in
  Alcotest.(check int) "every lookup accounted" 480
    (stats.Ts_core.Cache.hits + stats.Ts_core.Cache.misses);
  Alcotest.(check bool) "hits happened" true (stats.Ts_core.Cache.hits > 0);
  Alcotest.(check bool) "evictions happened (capacity < key space)" true
    (stats.Ts_core.Cache.evictions > 0);
  Alcotest.(check bool) "capacity respected" true
    (stats.Ts_core.Cache.entries <= 16);
  (* the cache's shard accesses feed the same detector that certifies the
     engine: the hammer log must replay race-free *)
  let report = Ts_analysis.Race.check events in
  Alcotest.(check bool) "cache shards logged accesses" true
    (report.Ts_analysis.Race.accesses > 0);
  Alcotest.(check bool) "cache hammer race-free" true
    (Ts_analysis.Race.race_free report)

(* A protocol whose step raises fails the check the same way at every
   domain count: the exception of the first raising input vector
   propagates (the serial run never reaches the later vectors). *)
let test_raise_same_at_every_domain_count () =
  let proto = Broken.rogue_writer ~n:2 in
  let observe domains =
    match
      Explore.check_consensus ~domains proto ~inputs_list:(Explore.binary_inputs 2)
        ~max_configs:4_000 ~max_depth:25 ~solo_budget:300 ~check_solo:true
    with
    | _ -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let serial = observe 1 in
  Alcotest.(check bool) "the serial check raises" true (serial <> None);
  Alcotest.(check (option string)) "domains:4 raises the same exception" serial
    (observe 4)

(* --- the service path under the race detector ------------------------- *)

(* PR-3 extension: the event-loop mailbox (self-pipe posting) and the
   cache -> store write-through now log accesses.  Drive a store-backed
   daemon from concurrent clients — certified witness queries, so the
   answer path crosses cert emission, the cache and the store append —
   and certify the whole run race-free. *)
let test_service_store_race_free () =
  let module Server = Ts_service.Server in
  let module Client = Ts_service.Client in
  let module Request = Ts_service.Request in
  let path = Filename.temp_file "tightspace-race" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Obs.start_accesses ();
  let events =
    let server =
      Server.start
        { Server.default_config with Server.port = 0; store_path = Some path }
    in
    Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
    let port = Server.port server in
    let answers =
      Par.map_list ~domains:3
        (fun d ->
          let conn = Client.connect_exn ~port () in
          Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
          (* repeats included: the second round must hit cache/store *)
          List.init 4 (fun j ->
              let req =
                { Request.defaults with
                  Request.op = Request.Witness;
                  n = 2;
                  id = (d * 10) + j;
                  certificate = true }
              in
              match Client.rpc conn (Request.to_json req) with
              | Ok doc ->
                Ts_analysis.Json.member "ok" doc
                = Some (Ts_analysis.Json.Bool true)
              | Error _ -> false))
        [ 0; 1; 2 ];
    in
    Alcotest.(check bool) "every certified query answered" true
      (List.for_all (List.for_all Fun.id) answers);
    Obs.stop_accesses ()
  in
  let report = Ts_analysis.Race.check events in
  Alcotest.(check bool) "accesses logged" true
    (report.Ts_analysis.Race.accesses > 0);
  let touched prefix =
    List.exists
      (function
        | Obs.Access { loc; _ } ->
          String.length loc >= String.length prefix
          && String.sub loc 0 (String.length prefix) = prefix
        | _ -> false)
      events
  in
  Alcotest.(check bool) "evloop mailbox instrumented" true
    (touched "evloop.mailbox");
  Alcotest.(check bool) "store log instrumented" true (touched "store.log");
  Alcotest.(check bool) "service + store race-free" true
    (Ts_analysis.Race.race_free report)

(* --- qcheck: key packing is injective on reachable configurations ----- *)

(* Random walk from random binary inputs; collects the visited configs. *)
let random_configs proto ~n ~seed ~steps =
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
  let cfg = ref (Config.initial proto ~inputs) in
  let acc = ref [ !cfg ] in
  (try
     for _ = 1 to steps do
       let alive =
         List.filter (fun p -> Config.has_decided !cfg p = None) (List.init n Fun.id)
       in
       if alive = [] then raise Exit;
       let p = List.nth alive (Rng.int rng (List.length alive)) in
       let coin =
         match Config.poised proto !cfg p with
         | Some Action.Flip -> Some (Rng.bool rng)
         | _ -> None
       in
       cfg := fst (Config.step proto !cfg p ~coin);
       acc := !cfg :: !acc
     done
   with Exit -> ());
  !acc

(* Config.equal a b  <=>  Ckey.equal (pack a) (pack b), and equal keys have
   equal hashes.  Two independent walks so unequal pairs actually occur. *)
let prop_pack_injective name proto ~n =
  QCheck.Test.make ~name:("ckey: packing injective on " ^ name) ~count:30
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let pk = Ckey.packer proto in
      let cs =
        random_configs proto ~n ~seed:s1 ~steps:25
        @ random_configs proto ~n ~seed:(s2 + 1000) ~steps:25
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let ka = Ckey.pack pk a and kb = Ckey.pack pk b in
              let same_cfg = Config.equal a b and same_key = Ckey.equal ka kb in
              same_cfg = same_key && (not same_key || Ckey.hash ka = Ckey.hash kb))
            cs)
        cs)

let qcheck_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~verbose:false t)
    [
      prop_pack_injective "racing-2" (Racing.make ~n:2) ~n:2;
      prop_pack_injective "broken-lww-2" (Broken.last_write_wins ~n:2) ~n:2;
      prop_pack_injective "multivalued-2x2" (Multivalued.make ~n:2 ~bits:2) ~n:2;
      prop_pack_injective "kset-3-2" (Kset.make ~n:3 ~k:2) ~n:3;
      prop_outcomes_match_serial;
    ]

let suite =
  ( "parallel-engine",
    [
      Alcotest.test_case "serial = parallel: racing" `Quick test_diff_racing;
      Alcotest.test_case "serial = parallel: broken" `Quick test_diff_broken;
      Alcotest.test_case "serial = parallel: multivalued" `Quick test_diff_multivalued;
      Alcotest.test_case "serial = parallel: k-set" `Quick test_diff_kset;
      Alcotest.test_case "joint valency = per-probe searches" `Quick test_joint_valency;
      Alcotest.test_case "exception ordering matches serial" `Quick
        test_exception_ordering_matches_serial;
      Alcotest.test_case "outcomes keep sibling results" `Quick
        test_outcomes_keep_sibling_results;
      Alcotest.test_case "no domain leak on raise" `Quick test_no_domain_leak_on_raise;
      Alcotest.test_case "cache hammer: 4 domains, race-free, correct" `Quick
        test_cache_hammer;
      Alcotest.test_case "store-backed service: race-free, instrumented" `Quick
        test_service_store_race_free;
      Alcotest.test_case "joint valency work counts" `Quick test_joint_valency_counts;
      Alcotest.test_case "a raising protocol fails alike at any domain count" `Quick
        test_raise_same_at_every_domain_count;
    ]
    @ qcheck_cases )
