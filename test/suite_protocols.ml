(* Consensus protocols: racing counters and the broken controls. *)
open Ts_model
open Ts_protocols

let run_to_agreement proto ~inputs ~seed =
  let rng = Rng.create seed in
  let o =
    Sim.run proto ~inputs ~policy:(Sim.Random rng)
      ~flips:(fun () -> Rng.bool rng)
      ~budget:500_000
  in
  Alcotest.(check bool) "finished" false o.Sim.ran_out;
  match Sim.agreement o with
  | Ok v ->
    Alcotest.(check bool) "validity" true (Sim.valid ~inputs v);
    v
  | Error vs ->
    Alcotest.failf "agreement violated: %a" Fmt.(Dump.list (fun ppf v -> Value.pp ppf v)) vs

let test_racing_solo_each_value () =
  List.iter
    (fun n ->
      let proto = Racing.make ~n in
      List.iter
        (fun input ->
          let inputs = Array.init n (fun p -> Value.int (if p = 0 then input else 1 - input)) in
          let o = Sim.run proto ~inputs ~policy:(Sim.Solo 0) ~flips:(fun () -> true) ~budget:100_000 in
          Alcotest.(check bool) (Printf.sprintf "n=%d solo decides" n) true
            (o.Sim.decisions = [ 0, Value.int input ]))
        [ 0; 1 ])
    [ 1; 2; 3; 5; 8 ]

let test_racing_random_runs () =
  List.iter
    (fun n ->
      let proto = Racing.make ~n in
      for seed = 1 to 10 do
        let rng = Rng.create (seed * 31) in
        let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
        ignore (run_to_agreement proto ~inputs ~seed)
      done)
    [ 2; 3; 4; 6 ]

let test_racing_unanimous_inputs_win () =
  (* validity pins the decision when inputs are unanimous *)
  List.iter
    (fun input ->
      let n = 4 in
      let inputs = Array.make n (Value.int input) in
      let v = run_to_agreement (Racing.make ~n) ~inputs ~seed:5 in
      Alcotest.(check int) "unanimous decision" input (Value.to_int v))
    [ 0; 1 ]

let test_racing_rejects_bad_input () =
  Alcotest.check_raises "non-binary input" (Invalid_argument "Racing.init: input must be 0 or 1")
    (fun () ->
      ignore (Config.initial (Racing.make ~n:2) ~inputs:[| Value.int 2; Value.int 0 |]))

let test_racing_register_layout () =
  Alcotest.(check int) "slot 0 0" 0 (Racing.slot ~n:3 0 0);
  Alcotest.(check int) "slot 1 2" 5 (Racing.slot ~n:3 1 2);
  Alcotest.(check int) "registers" 6 (Racing.make ~n:3).Protocol.num_registers

let test_randomized_terminates_with_agreement () =
  let proto = Racing.make_randomized ~n:3 in
  for seed = 1 to 10 do
    let rng = Rng.create (seed * 97) in
    let inputs = Array.init 3 (fun _ -> Value.int (Rng.int rng 2)) in
    ignore (run_to_agreement proto ~inputs ~seed:(seed * 97))
  done

let test_randomized_flips_on_tie () =
  (* a tie with both counters positive triggers a flip; the initial 0-0
     "tie" must NOT (that would let the coin violate validity) *)
  let proto = Racing.make_randomized ~n:2 in
  let cfg = Config.initial proto ~inputs:[| Value.int 0; Value.int 1 |] in
  let rec first_non_read cfg p k =
    if k > 10_000 then Alcotest.fail "no non-read step found"
    else
      match Config.poised proto cfg p with
      | Some (Action.Read _) ->
        first_non_read (fst (Config.step proto cfg p ~coin:None)) p (k + 1)
      | Some a -> a, cfg
      | None -> Alcotest.fail "decided unexpectedly"
  in
  (* initial scan sees 0-0: must increment, not flip *)
  (match first_non_read cfg 0 0 with
   | Action.Write _, _ -> ()
   | a, _ -> Alcotest.failf "expected write on fresh tie, got %a" Action.pp a);
  (* interleave so both processes scan 0-0 concurrently and then both
     increment their own value: a genuine 1-1 tie *)
  let run_to_pending_write cfg p =
    let rec go cfg =
      match Config.poised proto cfg p with
      | Some (Action.Read _) -> go (fst (Config.step proto cfg p ~coin:None))
      | Some (Action.Write _) -> cfg
      | Some a -> Alcotest.failf "unexpected %a" Action.pp a
      | None -> Alcotest.fail "decided unexpectedly"
    in
    go cfg
  in
  let cfg = run_to_pending_write cfg 0 in
  let cfg = run_to_pending_write cfg 1 in
  let cfg = fst (Config.step proto cfg 0 ~coin:None) in
  let cfg = fst (Config.step proto cfg 1 ~coin:None) in
  (match first_non_read cfg 0 0 with
   | Action.Flip, _ -> ()
   | a, _ -> Alcotest.failf "expected flip on genuine tie, got %a" Action.pp a)

let test_deterministic_racing_never_flips () =
  let proto = Racing.make ~n:2 in
  let cfg = Config.initial proto ~inputs:[| Value.int 0; Value.int 1 |] in
  (* run p0 to decision; no step may be a flip *)
  let _, trace, decision = Execution.solo proto cfg 0 ~flips:(fun _ -> true) ~budget:10_000 in
  Alcotest.(check bool) "decided" true (decision <> None);
  Alcotest.(check bool) "no flips" true
    (List.for_all (fun s -> s.Execution.action <> Action.Flip) trace)

(* The key internal invariant behind racing's agreement proof: a deciding
   collect reads the preferred counter first.  We check the read order of a
   full scan from a fresh state. *)
let test_scan_order_own_counter_first () =
  let n = 3 in
  let proto = Racing.make ~n in
  let cfg = Config.initial proto ~inputs:[| Value.int 1; Value.int 0; Value.int 0 |] in
  let rec collect cfg k acc =
    if k = 2 * n then List.rev acc
    else
      match Config.poised proto cfg 0 with
      | Some (Action.Read r) -> collect (fst (Config.step proto cfg 0 ~coin:None)) (k + 1) (r :: acc)
      | _ -> Alcotest.fail "expected read during scan"
  in
  let reads = collect cfg 0 [] in
  let expected =
    (* p0 prefers 1: slots of counter 1 first (3,4,5), then counter 0 *)
    [ 3; 4; 5; 0; 1; 2 ]
  in
  Alcotest.(check (list int)) "scan order" expected reads

let explore proto =
  Ts_checker.Explore.check_consensus proto
    ~inputs_list:(Ts_checker.Explore.binary_inputs proto.Protocol.num_processes)
    ~max_configs:15_000 ~max_depth:30 ~solo_budget:200 ~check_solo:true

let test_model_check_racing_2 () =
  let r = explore (Racing.make ~n:2) in
  (match r.Ts_checker.Explore.verdict with
   | Ok () -> ()
   | Error v -> Alcotest.failf "violation: %a" Ts_checker.Explore.pp_violation v)

let test_model_check_randomized_2 () =
  let r = explore (Racing.make_randomized ~n:2) in
  (match r.Ts_checker.Explore.verdict with
   | Ok () -> ()
   | Error v -> Alcotest.failf "violation: %a" Ts_checker.Explore.pp_violation v)

let expect_violation name proto pred =
  let r = explore proto in
  match r.Ts_checker.Explore.verdict with
  | Ok () -> Alcotest.failf "%s: violation not caught" name
  | Error v ->
    Alcotest.(check bool) (name ^ ": right violation kind") true (pred v)

let test_broken_lww () =
  expect_violation "lww" (Broken.last_write_wins ~n:2) (function
    | Ts_checker.Explore.Agreement_violation _ -> true
    | _ -> false)

let test_broken_max () =
  expect_violation "naive max" (Broken.naive_max ~n:2) (function
    | Ts_checker.Explore.Agreement_violation _ -> true
    | _ -> false)

let test_broken_const () =
  expect_violation "constant 7" (Broken.oblivious_seven ~n:2) (function
    | Ts_checker.Explore.Validity_violation { value; _ } -> Value.equal value (Value.int 7)
    | _ -> false)

let test_broken_spin () =
  expect_violation "insomniac" (Broken.insomniac ~n:2) (function
    | Ts_checker.Explore.Solo_stuck _ -> true
    | _ -> false)

let test_violation_schedules_replay () =
  (* the counterexample schedule must actually reproduce the violation *)
  let proto = Broken.last_write_wins ~n:2 in
  let r = explore proto in
  match r.Ts_checker.Explore.verdict with
  | Error (Ts_checker.Explore.Agreement_violation { inputs; schedule; values }) ->
    let cfg = Config.initial proto ~inputs in
    let cfg', _ = Execution.apply proto cfg schedule in
    Alcotest.(check bool) "replayed decisions match" true
      (Config.decided_values cfg' = values)
  | _ -> Alcotest.fail "expected agreement violation with schedule"

(* [Catalog.find] is total: a constructor that refuses an unsupported n by
   raising (racing at n <= 0, swap-chain at n <= 2) must come back as an
   [Error] naming the protocol, never as an exception. *)
let test_catalog_find_total () =
  List.iter
    (fun name ->
      List.iter
        (fun n ->
          match Catalog.find name ~n with
          | Ok _ | Error _ -> ()
          | exception e ->
            Alcotest.failf "Catalog.find %S ~n:%d raised %s" name n (Printexc.to_string e))
        [ -1; 0; 1; 2; 3 ])
    (Catalog.names ());
  List.iter
    (fun (name, n) ->
      match Catalog.find name ~n with
      | Ok _ -> Alcotest.failf "%s at n = %d was instantiated" name n
      | Error msg ->
        Alcotest.(check bool) ("refusal names the protocol: " ^ msg) true
          (String.starts_with ~prefix:name msg))
    [ ("racing", 0); ("racing-rand", -1); ("multivalued", 0); ("swap-chain", 2) ];
  Alcotest.(check bool) "swap-chain at n = 3 is still served" true
    (Result.is_ok (Catalog.find "swap-chain" ~n:3))

let suite =
  ( "protocols",
    [
      Alcotest.test_case "racing: solo decides own input" `Quick test_racing_solo_each_value;
      Alcotest.test_case "racing: random runs agree validly" `Quick test_racing_random_runs;
      Alcotest.test_case "racing: unanimous inputs win" `Quick test_racing_unanimous_inputs_win;
      Alcotest.test_case "racing: rejects non-binary input" `Quick test_racing_rejects_bad_input;
      Alcotest.test_case "racing: register layout" `Quick test_racing_register_layout;
      Alcotest.test_case "randomized: agrees across seeds" `Quick test_randomized_terminates_with_agreement;
      Alcotest.test_case "randomized: flips on observed tie" `Quick test_randomized_flips_on_tie;
      Alcotest.test_case "deterministic variant never flips" `Quick test_deterministic_racing_never_flips;
      Alcotest.test_case "scan reads own counter first" `Quick test_scan_order_own_counter_first;
      Alcotest.test_case "model check: racing n=2" `Slow test_model_check_racing_2;
      Alcotest.test_case "model check: randomized n=2" `Slow test_model_check_randomized_2;
      Alcotest.test_case "broken: last-write-wins caught" `Quick test_broken_lww;
      Alcotest.test_case "broken: naive max caught" `Quick test_broken_max;
      Alcotest.test_case "broken: constant 7 caught" `Quick test_broken_const;
      Alcotest.test_case "broken: insomniac caught" `Quick test_broken_spin;
      Alcotest.test_case "counterexample schedules replay" `Quick test_violation_schedules_replay;
      Alcotest.test_case "catalog: find never raises" `Quick test_catalog_find_total;
    ] )
