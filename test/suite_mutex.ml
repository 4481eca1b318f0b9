(* Mutual exclusion: Peterson, the arbitration tree, the TAS lock, and the
   state-change cost model. *)
open Ts_model
open Ts_lecture

let algorithms n =
  [
    Algorithm.Packed (Peterson.make ~n);
    Algorithm.Packed (Tournament.make ~n);
    Algorithm.Packed (Tas_lock.make ~n);
  ]

let test_serial_identity_order () =
  List.iter
    (fun n ->
      List.iter
        (fun (Algorithm.Packed alg) ->
          let order = Array.init n Fun.id in
          let o = Arena.serial alg ~order in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: serial order realized" o.Arena.algorithm)
            (Array.to_list order) o.Arena.cs_order)
        (algorithms n))
    [ 1; 2; 3; 5; 8 ]

let test_serial_arbitrary_orders () =
  let n = 6 in
  List.iter
    (fun seed ->
      let order = Rng.permutation (Rng.create seed) n in
      List.iter
        (fun (Algorithm.Packed alg) ->
          let o = Arena.serial alg ~order in
          Alcotest.(check (list int)) "any permutation is realizable" (Array.to_list order)
            o.Arena.cs_order)
        (algorithms n))
    [ 1; 2; 3; 4; 5 ]

let test_contended_everyone_enters () =
  List.iter
    (fun n ->
      List.iter
        (fun (Algorithm.Packed alg) ->
          let o = Arena.contended alg in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: everyone enters exactly once" o.Arena.algorithm)
            (List.init n Fun.id)
            (List.sort compare o.Arena.cs_order))
        (algorithms n))
    [ 1; 2; 3; 4; 8; 16 ]

(* Random schedules: mutual exclusion must hold under any interleaving.
   The arena raises if two processes are ever in the CS together. *)
let test_random_schedules_mutual_exclusion () =
  let n = 4 in
  List.iter
    (fun (Algorithm.Packed alg) ->
      for seed = 1 to 20 do
        let rng = Rng.create seed in
        let s = Arena.session alg in
        for p = 0 to n - 1 do
          Arena.start_proc s p
        done;
        let remaining = ref n in
        let guard = ref 2_000_000 in
        while !remaining > 0 && !guard > 0 do
          decr guard;
          let alive = List.filter (Arena.active s) (List.init n Fun.id) in
          match alive with
          | [] -> remaining := 0
          | _ ->
            let p = List.nth alive (Rng.int rng (List.length alive)) in
            (match Arena.step_proc s p with `Done -> decr remaining | `Continues -> ())
        done;
        let o = Arena.session_outcome s in
        Alcotest.(check int) "all entered" n (List.length o.Arena.cs_order)
      done)
    (algorithms 4)

let test_cost_model_spinning_is_free () =
  (* a TAS process spinning on a held lock is charged once for the first
     miss, then spins free *)
  let alg = Tas_lock.make ~n:2 in
  let s = Arena.session alg in
  Arena.start_proc s 0;
  ignore (Arena.step_proc s 0);
  (* p0 holds the lock *)
  Arena.start_proc s 1;
  ignore (Arena.step_proc s 1);
  (* p1 swapped and failed: charged *)
  let o1 = (Arena.session_outcome s).Arena.per_process_cost.(1) in
  for _ = 1 to 50 do
    ignore (Arena.step_proc s 1)
  done;
  let o2 = (Arena.session_outcome s).Arena.per_process_cost.(1) in
  (* 50 spin reads of an unchanged register: at most one more charge *)
  Alcotest.(check bool) "spinning essentially free" true (o2 - o1 <= 1)

let test_cost_model_write_always_charged () =
  let alg = Peterson.make ~n:2 in
  let s = Arena.session alg in
  Arena.start_proc s 0;
  ignore (Arena.step_proc s 0);
  let c = (Arena.session_outcome s).Arena.per_process_cost.(0) in
  Alcotest.(check int) "first write charged" 1 c

let test_tournament_cost_scales_n_log_n () =
  let cost n =
    let o = Arena.serial (Tournament.make ~n) ~order:(Array.init n Fun.id) in
    o.Arena.cost
  in
  let c8 = cost 8 and c64 = cost 64 in
  (* n log n predicts a factor of 16 from 8 to 64; allow generous slack *)
  let ratio = float_of_int c64 /. float_of_int c8 in
  Alcotest.(check bool) "cost ratio betrays n log n" true (ratio > 10. && ratio < 24.)

let test_peterson_cost_scales_quadratically () =
  let cost n =
    let o = Arena.serial (Peterson.make ~n) ~order:(Array.init n Fun.id) in
    o.Arena.cost
  in
  let c8 = cost 8 and c32 = cost 32 in
  (* quadratic predicts 16x *)
  let ratio = float_of_int c32 /. float_of_int c8 in
  Alcotest.(check bool) "cost ratio betrays n^2" true (ratio > 10. && ratio < 24.)

let test_tas_cost_linear () =
  let cost n =
    let o = Arena.serial (Tas_lock.make ~n) ~order:(Array.init n Fun.id) in
    o.Arena.cost
  in
  Alcotest.(check int) "2 charged accesses per passage" (2 * 16) (cost 16)

let test_tournament_beats_peterson () =
  let n = 32 in
  let order = Array.init n Fun.id in
  let tp = (Arena.serial (Peterson.make ~n) ~order).Arena.cost in
  let tt = (Arena.serial (Tournament.make ~n) ~order).Arena.cost in
  let ts = (Arena.serial (Tas_lock.make ~n) ~order).Arena.cost in
  Alcotest.(check bool) "tournament beats Peterson" true (tt < tp);
  Alcotest.(check bool) "swap beats registers" true (ts < tt)

let test_uses_swap_flags () =
  Alcotest.(check bool) "peterson register-only" false (Peterson.make ~n:2).Algorithm.uses_swap;
  Alcotest.(check bool) "tournament register-only" false (Tournament.make ~n:2).Algorithm.uses_swap;
  Alcotest.(check bool) "tas uses swap" true (Tas_lock.make ~n:2).Algorithm.uses_swap

let test_register_counts () =
  Alcotest.(check int) "peterson registers 2n-1" 15 (Peterson.make ~n:8).Algorithm.num_registers;
  Alcotest.(check int) "tournament registers 3(n-1)" 21 (Tournament.make ~n:8).Algorithm.num_registers;
  Alcotest.(check int) "tas registers 1" 1 (Tas_lock.make ~n:8).Algorithm.num_registers

let test_step_log_consistency () =
  let alg = Tournament.make ~n:3 in
  let o = Arena.contended alg in
  let steps_in_log =
    List.length (List.filter (function Arena.Stepped _ -> true | Arena.Started _ -> false) o.Arena.step_log)
  in
  let charged_in_log =
    List.length (List.filter (function Arena.Stepped (_, true) -> true | _ -> false) o.Arena.step_log)
  in
  Alcotest.(check int) "log steps = steps" o.Arena.steps steps_in_log;
  (* CS transitions are logged as charged but not costed, so charged >= cost *)
  Alcotest.(check bool) "charged log entries cover the cost" true (charged_in_log >= o.Arena.cost)

let suite =
  ( "mutex",
    [
      Alcotest.test_case "serial identity order" `Quick test_serial_identity_order;
      Alcotest.test_case "serial arbitrary orders" `Quick test_serial_arbitrary_orders;
      Alcotest.test_case "contended: everyone enters once" `Quick test_contended_everyone_enters;
      Alcotest.test_case "random schedules keep mutual exclusion" `Slow
        test_random_schedules_mutual_exclusion;
      Alcotest.test_case "cost model: spinning is free" `Quick test_cost_model_spinning_is_free;
      Alcotest.test_case "cost model: writes charged" `Quick test_cost_model_write_always_charged;
      Alcotest.test_case "tournament cost ~ n log n" `Quick test_tournament_cost_scales_n_log_n;
      Alcotest.test_case "peterson cost ~ n^2" `Quick test_peterson_cost_scales_quadratically;
      Alcotest.test_case "tas cost linear" `Quick test_tas_cost_linear;
      Alcotest.test_case "relative ordering of the three locks" `Quick test_tournament_beats_peterson;
      Alcotest.test_case "uses_swap flags" `Quick test_uses_swap_flags;
      Alcotest.test_case "register counts" `Quick test_register_counts;
      Alcotest.test_case "step log consistency" `Quick test_step_log_consistency;
    ] )
