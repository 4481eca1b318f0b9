(* Crash-stop fault injection and the t-resilience checker. *)
open Ts_model
open Ts_checker
open Ts_protocols

let inputs3 = [| Value.int 1; Value.int 0; Value.int 1 |]

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- fault plans ------------------------------------------------------- *)

let test_plan_validation () =
  Alcotest.(check bool) "duplicate pid rejected" true
    (match Fault.of_list [ 0, Fault.After_steps 1; 0, Fault.Before_write ] with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative step count rejected" true
    (match Fault.crash_after 0 (-1) with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "overlapping union rejected" true
    (match Fault.union (Fault.crash_after 1 2) (Fault.crash_before_write 1) with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "t > n rejected" true
    (match Fault.random ~seed:1 ~n:2 ~t:3 ~max_delay:5 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "empty plan is empty" true (Fault.is_empty Fault.none);
  Alcotest.(check bool) "union not empty" false
    (Fault.is_empty (Fault.union Fault.none (Fault.crash_after 2 0)))

let test_random_plan_seeded () =
  let plan = Fault.random ~seed:42 ~n:5 ~t:3 ~max_delay:7 in
  Alcotest.(check (option int)) "seed recorded" (Some 42) (Fault.seed plan);
  let crashes = Fault.crashes plan in
  Alcotest.(check int) "t victims" 3 (List.length crashes);
  let pids = List.map fst crashes in
  Alcotest.(check bool) "victims distinct and in range" true
    (List.length (List.sort_uniq compare pids) = 3
     && List.for_all (fun p -> p >= 0 && p < 5) pids);
  List.iter
    (fun (_, tr) ->
      match tr with
      | Fault.After_steps k -> Alcotest.(check bool) "delay in range" true (k >= 0 && k <= 7)
      | Fault.Before_write -> Alcotest.fail "random plans use step delays")
    crashes;
  (* same seed, same plan *)
  Alcotest.(check bool) "deterministic in the seed" true
    (Fault.crashes (Fault.random ~seed:42 ~n:5 ~t:3 ~max_delay:7) = crashes);
  let s = Format.asprintf "%a" Fault.pp plan in
  Alcotest.(check bool) "pp mentions the seed" true (contains ~needle:"42" s)

(* --- simulation under faults ------------------------------------------ *)

let test_crash_after_k_steps () =
  let proto = Racing.make ~n:3 in
  let o =
    Sim.run proto ~faults:(Fault.crash_after 0 2) ~inputs:inputs3
      ~policy:Sim.Round_robin ~flips:(fun () -> true) ~budget:100_000
  in
  Alcotest.(check (list int)) "p0 crashed" [ 0 ] o.Sim.crashed;
  Alcotest.(check int) "p0 took exactly 2 steps" 2
    (List.length (List.filter (fun s -> s.Execution.actor = 0) o.Sim.trace));
  Alcotest.(check bool) "p0 did not decide" true
    (not (List.mem_assoc 0 o.Sim.decisions));
  (match Sim.agreement o with
   | Ok v -> Alcotest.(check bool) "survivors agree on an input" true (Sim.valid ~inputs:inputs3 v)
   | Error vs -> Alcotest.failf "survivors disagreed: %a" Fmt.(Dump.list Value.pp) vs);
  Alcotest.(check int) "both survivors decided" 2 (List.length o.Sim.decisions)

let test_before_write_loses_the_write () =
  (* wait-for-all: p0 crashes while poised to announce, so its slot stays
     Bot and nobody can complete a scan *)
  let proto = Broken.wait_for_all ~n:3 in
  let o =
    Sim.run proto ~faults:(Fault.crash_before_write 0) ~inputs:inputs3
      ~policy:Sim.Round_robin ~flips:(fun () -> true) ~budget:5_000
  in
  Alcotest.(check (list int)) "p0 crashed" [ 0 ] o.Sim.crashed;
  Alcotest.(check bool) "pending write lost: R0 still Bot" true
    (Config.register o.Sim.final 0 = Value.Bot);
  Alcotest.(check int) "nobody decided" 0 (List.length o.Sim.decisions);
  Alcotest.(check bool) "budget exhausted by the stalled scan" true o.Sim.ran_out

let test_decided_process_cannot_crash () =
  let proto = Racing.make ~n:3 in
  (* solo p0 decides long before step 10_000: the trigger never fires *)
  let o =
    Sim.run proto ~faults:(Fault.crash_after 0 10_000) ~inputs:inputs3
      ~policy:(Sim.Solo 0) ~flips:(fun () -> true) ~budget:100_000
  in
  Alcotest.(check (list int)) "no crash" [] o.Sim.crashed;
  Alcotest.(check bool) "p0 decided" true (List.mem_assoc 0 o.Sim.decisions)

let test_all_crashed_terminates () =
  let proto = Racing.make ~n:3 in
  let plan =
    Fault.of_list [ 0, Fault.After_steps 0; 1, Fault.After_steps 0; 2, Fault.After_steps 0 ]
  in
  let o =
    Sim.run proto ~faults:plan ~inputs:inputs3 ~policy:Sim.Round_robin
      ~flips:(fun () -> true) ~budget:1_000
  in
  Alcotest.(check (list int)) "everyone crashed" [ 0; 1; 2 ] o.Sim.crashed;
  Alcotest.(check int) "no steps taken" 0 o.Sim.steps;
  Alcotest.(check bool) "run ended cleanly, not on budget" false o.Sim.ran_out

let test_rng_state_replay () =
  let proto = Racing.make ~n:3 in
  let plan = Fault.random ~seed:11 ~n:3 ~t:1 ~max_delay:6 in
  let run rng =
    Sim.run proto ~faults:plan ~inputs:inputs3 ~policy:(Sim.Random rng)
      ~flips:(fun () -> Rng.bool rng) ~budget:100_000
  in
  let o = run (Rng.create 2026) in
  (match o.Sim.rng_state with
   | None -> Alcotest.fail "Random policy must record its rng state"
   | Some s ->
     let o' = run (Rng.of_state s) in
     Alcotest.(check int) "same steps" o.Sim.steps o'.Sim.steps;
     Alcotest.(check bool) "same decisions" true (o.Sim.decisions = o'.Sim.decisions);
     Alcotest.(check bool) "same crashes" true (o.Sim.crashed = o'.Sim.crashed));
  (* deterministic policies carry no replay token *)
  let det =
    Sim.run proto ~inputs:inputs3 ~policy:Sim.Round_robin ~flips:(fun () -> true)
      ~budget:100_000
  in
  Alcotest.(check bool) "no rng state for round-robin" true (det.Sim.rng_state = None)

(* --- t-resilience checking -------------------------------------------- *)

let resilient ?budget ~t proto ~n ~max_configs ~max_depth ~solo_budget () =
  Explore.check_t_resilient ?budget ~t proto
    ~inputs_list:(Explore.binary_inputs n) ~max_configs ~max_depth ~solo_budget

let test_racing_is_resilient () =
  (* the acceptance case: racing n=3 survives any n-1 = 2 crashes *)
  List.iter
    (fun t ->
      let r =
        resilient ~t (Racing.make ~n:3) ~n:3 ~max_configs:600 ~max_depth:8
          ~solo_budget:60 ()
      in
      match r.Explore.verdict with
      | Ok () -> ()
      | Error v -> Alcotest.failf "racing not %d-resilient?! %a" t Explore.pp_violation v)
    [ 0; 1; 2 ]

let test_kset_is_resilient () =
  let r =
    resilient ~t:2 (Kset.make ~n:3 ~k:2) ~n:3 ~max_configs:500 ~max_depth:8
      ~solo_budget:50 ()
  in
  Alcotest.(check bool) "kset 2-resilient within bounds" true (r.Explore.verdict = Ok ())

let test_wait_for_all_zero_resilient () =
  (* with nobody crashing, the full group always finishes: the graph is
     finite, so this is exhaustive, not bounded *)
  let r =
    resilient ~t:0 (Broken.wait_for_all ~n:3) ~n:3 ~max_configs:100_000 ~max_depth:200
      ~solo_budget:200 ()
  in
  Alcotest.(check bool) "0-resilient" true (r.Explore.verdict = Ok ());
  Alcotest.(check bool) "exhaustive" false r.Explore.stats.Explore.truncated

let test_wait_for_all_not_one_resilient () =
  let proto = Broken.wait_for_all ~n:3 in
  let solo_budget = 200 in
  let r = resilient ~t:1 proto ~n:3 ~max_configs:5_000 ~max_depth:20 ~solo_budget () in
  match r.Explore.verdict with
  | Error (Explore.Crash_stuck { crashed; survivors; schedule; _ } as v) ->
    Alcotest.(check int) "one crash suffices" 1 (List.length crashed);
    Alcotest.(check int) "two survivors stuck" 2 (List.length survivors);
    Alcotest.(check (list int)) "witness at the initial configuration" []
      (List.map (fun e -> e.Execution.pid) schedule);
    (* the witness must survive an independent replay *)
    (match Explore.replay ~solo_budget proto v with
     | Ok () -> ()
     | Error e -> Alcotest.failf "witness replay failed: %s" e)
  | Error v -> Alcotest.failf "unexpected violation: %a" Explore.pp_violation v
  | Ok () -> Alcotest.fail "wait-for-all should not be 1-resilient"

let test_resilient_t_range_checked () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "t = %d rejected" t)
        true
        (match
           resilient ~t (Racing.make ~n:3) ~n:3 ~max_configs:10 ~max_depth:2
             ~solo_budget:5 ()
         with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ -1; 3 ]

let test_resilient_serial_equals_parallel () =
  let run domains =
    Explore.check_t_resilient ~domains ~t:1 (Racing.make ~n:3)
      ~inputs_list:(Explore.binary_inputs 3) ~max_configs:300 ~max_depth:6
      ~solo_budget:40
  in
  let a = run 1 and b = run 4 in
  Alcotest.(check bool) "same verdict" true (a.Explore.verdict = b.Explore.verdict);
  Alcotest.(check bool) "same stats" true (a.Explore.stats = b.Explore.stats)

(* --- budget: heap high-water guard ------------------------------------ *)

module Budget = Ts_core.Budget

let test_heap_cap_check_trips () =
  (* any live program holds more than one word, so a 1-word allowance is
     already breached; [check] must see it without charging *)
  let b = Budget.create ~max_heap_words:1 () in
  Alcotest.(check bool) "breached reports the heap cap" true
    (Budget.breached b = Some (Budget.Heap_cap 1));
  Alcotest.check_raises "check raises Heap_cap" (Budget.Exhausted (Budget.Heap_cap 1))
    (fun () -> Budget.check b);
  Alcotest.(check int) "check charged nothing" 0 (Budget.spent b)

let test_heap_cap_sampled_on_charge () =
  (* the heap is sampled when the node counter crosses a multiple of 256:
     255 single-node charges stay silent, the 256th trips *)
  let b = Budget.create ~max_heap_words:1 () in
  for _ = 1 to 255 do
    Budget.charge b 1
  done;
  Alcotest.(check int) "255 nodes charged without sampling" 255 (Budget.spent b);
  Alcotest.check_raises "crossing the sample boundary trips"
    (Budget.Exhausted (Budget.Heap_cap 1))
    (fun () -> Budget.charge b 1)

let test_heap_cap_stops_search_cleanly () =
  (* a tripped heap guard must surface as a structured partial result, not
     an exception out of the checker *)
  let r =
    Explore.check_consensus (Racing.make ~n:3)
      ~budget:(Budget.create ~max_heap_words:1 ())
      ~inputs_list:(Explore.binary_inputs 3) ~max_configs:100_000 ~max_depth:50
      ~solo_budget:60 ~check_solo:true
  in
  Alcotest.(check bool) "stopped on the heap cap" true
    (r.Explore.stopped = Some (Budget.Heap_cap 1));
  Alcotest.(check bool) "result marked truncated" true
    r.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "partial verdict, not a violation" true
    (r.Explore.verdict = Ok ())

let test_crash_stuck_pp () =
  let r =
    resilient ~t:1 (Broken.wait_for_all ~n:3) ~n:3 ~max_configs:2_000 ~max_depth:10
      ~solo_budget:100 ()
  in
  match r.Explore.verdict with
  | Error v ->
    let s = Format.asprintf "%a" Explore.pp_violation v in
    Alcotest.(check bool) "mentions resilience" true (contains ~needle:"resilience" s)
  | Ok () -> Alcotest.fail "expected a crash-stuck violation"

let suite =
  ( "fault-injection",
    [
      Alcotest.test_case "plan validation" `Quick test_plan_validation;
      Alcotest.test_case "seeded random plans" `Quick test_random_plan_seeded;
      Alcotest.test_case "crash after k steps" `Quick test_crash_after_k_steps;
      Alcotest.test_case "before-write crash loses the write" `Quick
        test_before_write_loses_the_write;
      Alcotest.test_case "decided processes cannot crash" `Quick
        test_decided_process_cannot_crash;
      Alcotest.test_case "all-crashed run terminates" `Quick test_all_crashed_terminates;
      Alcotest.test_case "rng state replays a random run" `Quick test_rng_state_replay;
      Alcotest.test_case "racing is (n-1)-resilient" `Quick test_racing_is_resilient;
      Alcotest.test_case "k-set agreement is resilient" `Quick test_kset_is_resilient;
      Alcotest.test_case "wait-for-all is 0-resilient" `Quick
        test_wait_for_all_zero_resilient;
      Alcotest.test_case "wait-for-all is not 1-resilient" `Quick
        test_wait_for_all_not_one_resilient;
      Alcotest.test_case "t range enforced" `Quick test_resilient_t_range_checked;
      Alcotest.test_case "resilience: serial = parallel" `Quick
        test_resilient_serial_equals_parallel;
      Alcotest.test_case "crash-stuck pretty-printing" `Quick test_crash_stuck_pp;
      Alcotest.test_case "budget: heap cap trips check" `Quick test_heap_cap_check_trips;
      Alcotest.test_case "budget: heap sampled at charge boundary" `Quick
        test_heap_cap_sampled_on_charge;
      Alcotest.test_case "budget: heap cap stops a search cleanly" `Quick
        test_heap_cap_stops_search_cleanly;
    ] )
