(* Multicore execution over OCaml 5 atomics. *)
open Ts_protocols
open Ts_lecture

let test_racing_on_domains () =
  let s =
    Atomic_run.run (Racing.make ~n:2) ~trials:25 ~seed:42 ~step_budget:500_000
      ~mixed_inputs:true
  in
  Alcotest.(check int) "no agreement failures" 0 s.Atomic_run.agreement_failures;
  Alcotest.(check int) "no validity failures" 0 s.Atomic_run.validity_failures;
  Alcotest.(check int) "no timeouts" 0 s.Atomic_run.timeouts;
  Alcotest.(check bool) "steps recorded" true (s.Atomic_run.total_steps > 0)

let test_racing3_on_domains () =
  let s =
    Atomic_run.run (Racing.make ~n:3) ~trials:15 ~seed:1 ~step_budget:500_000
      ~mixed_inputs:true
  in
  Alcotest.(check int) "agreement holds across domains" 0 s.Atomic_run.agreement_failures;
  Alcotest.(check int) "validity holds" 0 s.Atomic_run.validity_failures

let test_randomized_on_domains () =
  let s =
    Atomic_run.run (Racing.make_randomized ~n:3) ~trials:10 ~seed:5
      ~step_budget:500_000 ~mixed_inputs:true
  in
  Alcotest.(check int) "randomized agrees" 0 s.Atomic_run.agreement_failures;
  Alcotest.(check int) "randomized decides" 0 s.Atomic_run.timeouts

let test_fixed_inputs_parity () =
  let s =
    Atomic_run.run (Racing.make ~n:4) ~trials:10 ~seed:9 ~step_budget:500_000
      ~mixed_inputs:false
  in
  Alcotest.(check int) "agreement with parity inputs" 0 s.Atomic_run.agreement_failures

let test_stats_pp () =
  let s =
    Atomic_run.run (Racing.make ~n:2) ~trials:2 ~seed:3 ~step_budget:100_000
      ~mixed_inputs:true
  in
  let str = Format.asprintf "%a" Atomic_run.pp_stats s in
  Alcotest.(check bool) "stats print" true (String.length str > 20)

let suite =
  ( "runtime",
    [
      Alcotest.test_case "racing-2 on real domains" `Quick test_racing_on_domains;
      Alcotest.test_case "racing-3 on real domains" `Quick test_racing3_on_domains;
      Alcotest.test_case "randomized racing on domains" `Quick test_randomized_on_domains;
      Alcotest.test_case "parity inputs" `Quick test_fixed_inputs_parity;
      Alcotest.test_case "stats pretty-print" `Quick test_stats_pp;
    ] )
