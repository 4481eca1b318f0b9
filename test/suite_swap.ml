(* Swap in the consensus model — the §4 discussion, executable. *)
open Ts_model
open Ts_protocols
module E = Ts_checker.Explore
module Covering = Ts_core.Covering

let test_two_process_correct () =
  (* full exhaustive check: the graph is tiny and finite *)
  let r =
    E.check_consensus (Swap_consensus.two_process ()) ~inputs_list:(E.binary_inputs 2)
      ~max_configs:1_000 ~max_depth:10 ~solo_budget:10 ~check_solo:true
  in
  (match r.E.verdict with
   | Ok () -> ()
   | Error v -> Alcotest.failf "swap consensus violated: %a" E.pp_violation v);
  Alcotest.(check bool) "exhaustive, not truncated" false r.E.stats.E.truncated

let test_two_process_first_swapper_wins () =
  let proto = Swap_consensus.two_process () in
  let cfg = Config.initial proto ~inputs:[| Value.int 0; Value.int 1 |] in
  let cfg, _ = Config.step proto cfg 1 ~coin:None in
  (* p1 swapped first: both decide 1 *)
  let cfg, _ = Config.step proto cfg 1 ~coin:None in
  let cfg, _ = Config.step proto cfg 0 ~coin:None in
  let cfg, _ = Config.step proto cfg 0 ~coin:None in
  Alcotest.(check (list string)) "both decide 1" [ "1" ]
    (List.map Value.to_string (Config.decided_values cfg))

let test_two_process_one_register () =
  Alcotest.(check int) "one register" 1
    (Swap_consensus.two_process ()).Protocol.num_registers

let test_naive_chain_caught () =
  let r =
    E.check_consensus (Swap_consensus.naive_chain ~n:3) ~inputs_list:(E.binary_inputs 3)
      ~max_configs:5_000 ~max_depth:12 ~solo_budget:10 ~check_solo:false
  in
  match r.E.verdict with
  | Error (E.Agreement_violation _) -> ()
  | _ -> Alcotest.fail "swap has consensus number 2: the chain must break at n=3"

let test_theorem1_on_swap_consensus () =
  (* the n-1 bound holds trivially at n = 2 and the engine verifies it on
     the swap protocol too: the solo deciding execution "writes" (swaps)
     one register *)
  let t = Ts_core.Valency.create (Swap_consensus.two_process ()) ~horizon:10 in
  let cert = Ts_core.Theorem.theorem1 t in
  Alcotest.(check int) "one register written" 1
    (List.length cert.Ts_core.Theorem.registers_written);
  match Ts_core.Theorem.verify cert (Swap_consensus.two_process ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "replay failed: %s" e

let test_swap_counts_as_covering () =
  let proto = Swap_consensus.two_process () in
  let cfg = Config.initial proto ~inputs:[| Value.int 0; Value.int 1 |] in
  Alcotest.(check (option int)) "poised swap covers R0" (Some 0) (Covering.covers proto cfg 0);
  Alcotest.(check bool) "but both cover the SAME register" false
    (Covering.well_spread proto cfg (Pset.all 2))

let test_swap_on_domains () =
  let s =
    Ts_lecture.Atomic_run.run (Swap_consensus.two_process ()) ~trials:50 ~seed:8
      ~step_budget:1_000 ~mixed_inputs:true
  in
  Alcotest.(check int) "agreement on atomics" 0 s.Ts_lecture.Atomic_run.agreement_failures;
  Alcotest.(check int) "validity on atomics" 0 s.Ts_lecture.Atomic_run.validity_failures;
  Alcotest.(check int) "wait-free: no timeouts" 0 s.Ts_lecture.Atomic_run.timeouts

let test_swap_trace_accounting () =
  let proto = Swap_consensus.two_process () in
  let cfg = Config.initial proto ~inputs:[| Value.int 0; Value.int 1 |] in
  let _, trace = Execution.apply proto cfg [ Execution.ev 0; Execution.ev 1 ] in
  Alcotest.(check (list int)) "swap counts as write" [ 0 ] (Execution.written_registers trace);
  Alcotest.(check bool) "swap action printed" true
    (List.exists (fun s -> Action.is_swap s.Execution.action) trace)

let suite =
  ( "swap",
    [
      Alcotest.test_case "2-process swap consensus is correct" `Quick test_two_process_correct;
      Alcotest.test_case "first swapper wins" `Quick test_two_process_first_swapper_wins;
      Alcotest.test_case "one register suffices" `Quick test_two_process_one_register;
      Alcotest.test_case "naive chain at n=3 caught" `Quick test_naive_chain_caught;
      Alcotest.test_case "Theorem 1 engine handles swap" `Quick test_theorem1_on_swap_consensus;
      Alcotest.test_case "swap covers its register" `Quick test_swap_counts_as_covering;
      Alcotest.test_case "swap consensus on domains" `Quick test_swap_on_domains;
      Alcotest.test_case "swap trace accounting" `Quick test_swap_trace_accounting;
    ] )
