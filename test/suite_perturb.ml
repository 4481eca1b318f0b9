(* The Jayanti–Tan–Toueg covering adversary. *)
open Ts_lecture

let check_report name r =
  let n = r.Adversary.n in
  Alcotest.(check int) (name ^ ": covering processes") (n - 1) (List.length r.Adversary.cover);
  Alcotest.(check int) (name ^ ": distinct covered registers = n-1") (n - 1)
    r.Adversary.distinct_covered;
  Alcotest.(check int) (name ^ ": jtt bound") (n - 1) r.Adversary.jtt_bound;
  Alcotest.(check bool) (name ^ ": probe accesses >= n-1") true
    (r.Adversary.probe_accesses >= n - 1);
  Alcotest.(check bool) (name ^ ": probe steps >= n-1") true (r.Adversary.probe_steps >= n - 1);
  Alcotest.(check bool) (name ^ ": truncated perturbation hidden") true
    r.Adversary.hidden_invisible;
  Alcotest.(check bool) (name ^ ": completed perturbation visible") true
    r.Adversary.completed_visible

let test_counter () =
  List.iter (fun n -> check_report "counter" (Adversary.run_counter ~n)) [ 2; 3; 4; 8; 12 ]

let test_maxreg () =
  List.iter (fun n -> check_report "maxreg" (Adversary.run_maxreg ~n)) [ 2; 3; 4; 8 ]

let test_snapshot () =
  List.iter (fun n -> check_report "snapshot" (Adversary.run_snapshot ~n)) [ 2; 3; 4; 8 ]

let test_generic_run_equals_specialized () =
  let r1 = Adversary.run (Ts_lecture.Counter.make ~n:4) ~perturb:Ts_lecture.Counter.Inc
      ~probe:Ts_lecture.Counter.Read_count in
  let r2 = Adversary.run_counter ~n:4 in
  Alcotest.(check int) "same covering size" r2.Adversary.distinct_covered r1.Adversary.distinct_covered;
  Alcotest.(check bool) "hidden in generic run too" true r1.Adversary.hidden_invisible

let test_counter_probe_value_counts_block_writes () =
  (* after the block write of the n-1 covering incs, the probe reads n-1 *)
  let r = Adversary.run_counter ~n:5 in
  Alcotest.(check string) "base probe counts the n-2 block-written incs" "3"
    (Ts_model.Value.to_string r.Adversary.base_probe)

let test_small_n_rejected () =
  Alcotest.check_raises "n=1" (Invalid_argument "Adversary.run: need n >= 2") (fun () ->
      ignore (Adversary.run_counter ~n:1))

let test_report_pp () =
  let r = Adversary.run_counter ~n:3 in
  let s = Format.asprintf "%a" Adversary.pp_report r in
  Alcotest.(check bool) "report prints" true (String.length s > 40)

let suite =
  ( "perturb",
    [
      Alcotest.test_case "counter covering & hiding" `Quick test_counter;
      Alcotest.test_case "maxreg covering & hiding" `Quick test_maxreg;
      Alcotest.test_case "snapshot covering & hiding" `Quick test_snapshot;
      Alcotest.test_case "generic run equals specialized" `Quick test_generic_run_equals_specialized;
      Alcotest.test_case "probe counts block-written ops" `Quick test_counter_probe_value_counts_block_writes;
      Alcotest.test_case "n=1 rejected" `Quick test_small_n_rejected;
      Alcotest.test_case "report pretty-prints" `Quick test_report_pp;
    ] )
