(* The analyzer subsystem: footprint lint, determinism/purity replay,
   vector-clock race detection, and the gating driver.  The negative
   controls matter as much as the clean runs: an analyzer that cannot flag
   a planted defect certifies nothing. *)

open Ts_model
open Ts_analysis
module Obs = Ts_obs.Obs

let rw_det = { Lint.binary_decides = true; may_swap = false; may_flip = false }
let has_error ~code fs =
  List.exists (fun f -> f.Finding.severity = Finding.Error && f.Finding.code = code) fs
let binary2 = Ts_checker.Explore.binary_inputs 2

(* lint *)

let lint_racing_clean () =
  let fs, s = Lint.run rw_det (Ts_protocols.Racing.make ~n:2) ~inputs_list:binary2 in
  Alcotest.(check (list string)) "no errors" []
    (List.map (fun f -> f.Finding.code) (Finding.errors fs));
  Alcotest.(check bool) "decides reachable" true s.Lint.decide_reachable;
  Alcotest.(check int) "racing touches all 2n registers" 4 s.Lint.registers_touched;
  Alcotest.(check bool) "reads seen" true (s.Lint.reads > 0);
  Alcotest.(check bool) "within declared range" true (s.Lint.max_register < 4)

let lint_rogue_flagged () =
  let fs, s =
    Lint.run rw_det (Ts_protocols.Broken.rogue_writer ~n:2) ~inputs_list:binary2
  in
  Alcotest.(check bool) "out-of-range caught" true
    (has_error ~code:"register-out-of-range" fs);
  (* the stray write is observed but never stepped *)
  Alcotest.(check int) "lint saw register 1" 1 s.Lint.max_register

let lint_const_flagged () =
  let fs, _ =
    Lint.run rw_det (Ts_protocols.Broken.oblivious_seven ~n:2) ~inputs_list:binary2
  in
  Alcotest.(check bool) "non-binary decide caught" true
    (has_error ~code:"nonbinary-decide" fs)

let lint_spin_unreachable_decide () =
  let fs, s =
    Lint.run rw_det (Ts_protocols.Broken.insomniac ~n:2) ~inputs_list:binary2
  in
  Alcotest.(check bool) "exhaustive enumeration" false s.Lint.truncated;
  Alcotest.(check bool) "decision-unreachable is an error" true
    (has_error ~code:"decision-unreachable" fs)

let lint_swap_outside_claims () =
  (* swap consensus analyzed under read/write-only claims: the historyless
     primitive must be flagged as outside the declared model *)
  let fs, _ =
    Lint.run rw_det (Ts_protocols.Swap_consensus.two_process ()) ~inputs_list:binary2
  in
  Alcotest.(check bool) "swap outside read/write claims" true
    (has_error ~code:"primitive-outside-model" fs);
  let fs', _ =
    Lint.run { rw_det with may_swap = true }
      (Ts_protocols.Swap_consensus.two_process ()) ~inputs_list:binary2
  in
  Alcotest.(check int) "clean under historyless claims" 0
    (List.length (Finding.errors fs'))

let lint_undeclared_flip () =
  let fs, _ =
    Lint.run rw_det (Ts_protocols.Racing.make_randomized ~n:2) ~inputs_list:binary2
  in
  Alcotest.(check bool) "undeclared flip caught" true
    (has_error ~code:"undeclared-flip" fs)

(* determinism: fixtures with planted impurities *)

type counter_state = { input : int; ticks : int }

(* Hidden mutable state shared across all processes and all replays: the
   canonical impurity the shadow-store replay must catch. *)
let hidden_ref_protocol () : counter_state Protocol.t =
  let hidden = ref 0 in
  {
    Protocol.name = "fixture-hidden-ref";
    description = "reads a ref outside the configuration";
    num_processes = 2;
    num_registers = 1;
    init = (fun ~pid:_ ~input -> { input = Value.to_int input; ticks = 0 });
    poised =
      (fun s ->
        if s.ticks >= 2 then Action.Decide (Value.int s.input)
        else Action.Write (0, Value.int !hidden));
    on_read = (fun s _ -> s);
    on_write =
      (fun s ->
        incr hidden;
        { s with ticks = s.ticks + 1 });
    on_swap = (fun s _ -> s);
    on_flip = Protocol.no_flip;
    pp_state = (fun ppf s -> Fmt.pf ppf "{%d,%d}" s.input s.ticks);
    encode = Protocol.Generic;
  }

let unstable_poised_protocol () : counter_state Protocol.t =
  let flip_flop = ref false in
  {
    Protocol.name = "fixture-unstable-poised";
    description = "poised observation mutates hidden state";
    num_processes = 2;
    num_registers = 1;
    init = (fun ~pid:_ ~input -> { input = Value.to_int input; ticks = 0 });
    poised =
      (fun s ->
        flip_flop := not !flip_flop;
        if !flip_flop then Action.Read 0 else Action.Decide (Value.int s.input));
    on_read = (fun s _ -> { s with ticks = s.ticks + 1 });
    on_write = (fun s -> s);
    on_swap = (fun s _ -> s);
    on_flip = Protocol.no_flip;
    pp_state = (fun ppf s -> Fmt.pf ppf "{%d,%d}" s.input s.ticks);
    encode = Protocol.Generic;
  }

let determinism_racing_clean () =
  let fs = Determinism.run (Ts_protocols.Racing.make ~n:2) ~inputs_list:binary2 in
  Alcotest.(check (list string)) "no findings" [] (List.map (fun f -> f.Finding.code) fs)

let determinism_randomized_clean () =
  (* declared coins are not hidden nondeterminism *)
  let fs =
    Determinism.run (Ts_protocols.Racing.make_randomized ~n:2) ~inputs_list:binary2
  in
  Alcotest.(check (list string)) "no findings" [] (List.map (fun f -> f.Finding.code) fs)

let determinism_hidden_ref () =
  let fs = Determinism.run (hidden_ref_protocol ()) ~inputs_list:binary2 in
  Alcotest.(check bool) "hidden ref caught" true
    (has_error ~code:"hidden-nondeterminism" fs || has_error ~code:"impure-transition" fs)

let determinism_unstable_poised () =
  let fs = Determinism.run (unstable_poised_protocol ()) ~inputs_list:binary2 in
  Alcotest.(check bool) "unstable poised caught" true
    (has_error ~code:"unstable-poised" fs)

(* race detector on hand-built logs *)

let acc ~d ~loc ?(atomic = false) kind =
  Obs.Access { domain = d; loc; kind; atomic }

let race_unordered_writes () =
  (* two domains, no fork/join edges: concurrent plain writes must race *)
  let r =
    Race.check [ acc ~d:0 ~loc:"x" Obs.Write; acc ~d:1 ~loc:"x" Obs.Write ]
  in
  Alcotest.(check bool) "race reported" false (Race.race_free r);
  Alcotest.(check int) "one race on x" 1 (List.length r.Race.races);
  let rc = List.hd r.Race.races in
  Alcotest.(check string) "location" "x" rc.Race.loc

let race_fork_join_orders () =
  (* parent writes, forks; child writes; joins; parent writes again:
     every pair is ordered by the fork/join edges — no race *)
  let r =
    Race.check
      [
        acc ~d:0 ~loc:"x" Obs.Write;
        Obs.Fork { parent = 0; token = 1 };
        Obs.Begin { child = 1; token = 1 };
        acc ~d:1 ~loc:"x" Obs.Write;
        Obs.End { child = 1; token = 1 };
        Obs.Join { parent = 0; token = 1 };
        acc ~d:0 ~loc:"x" Obs.Write;
      ]
  in
  Alcotest.(check bool) "fork/join is happens-before" true (Race.race_free r)

let race_fork_without_join () =
  (* the parent's access after Fork is concurrent with the child's *)
  let r =
    Race.check
      [
        Obs.Fork { parent = 0; token = 1 };
        Obs.Begin { child = 1; token = 1 };
        acc ~d:1 ~loc:"x" Obs.Write;
        acc ~d:0 ~loc:"x" Obs.Write;
      ]
  in
  Alcotest.(check bool) "unjoined child races parent" false (Race.race_free r)

let race_atomics_do_not_race () =
  let r =
    Race.check
      [
        acc ~d:0 ~loc:"c" ~atomic:true Obs.Write;
        acc ~d:1 ~loc:"c" ~atomic:true Obs.Write;
        acc ~d:2 ~loc:"c" ~atomic:true Obs.Read;
      ]
  in
  Alcotest.(check bool) "atomic-atomic pairs are synchronized" true (Race.race_free r);
  (* but a plain access against an atomic write still races *)
  let r' =
    Race.check
      [ acc ~d:0 ~loc:"c" ~atomic:true Obs.Write; acc ~d:1 ~loc:"c" Obs.Read ]
  in
  Alcotest.(check bool) "plain read vs atomic write races" false (Race.race_free r')

let race_reads_do_not_race () =
  let r =
    Race.check [ acc ~d:0 ~loc:"x" Obs.Read; acc ~d:1 ~loc:"x" Obs.Read ]
  in
  Alcotest.(check bool) "read-read never races" true (Race.race_free r)

let race_planted_caught () =
  let r = Race.planted () in
  Alcotest.(check bool) "planted race caught" false (Race.race_free r);
  Alcotest.(check bool) "at least two domains observed" true (r.Race.domains >= 2)

let race_engine_certified () =
  let r = Race.certify_engine ~domains:3 () in
  Alcotest.(check bool) "parallel search race-free" true (Race.race_free r);
  Alcotest.(check bool) "workers actually traced" true (r.Race.domains >= 2);
  Alcotest.(check bool) "shared structures observed" true (r.Race.locations >= 3)

let trace_disarmed_is_free () =
  (* instrumentation must be inert when tracing is off *)
  Obs.access ~loc:"x" Obs.Write ~atomic:false;
  Obs.start_accesses ();
  let log = Obs.stop_accesses () in
  Alcotest.(check int) "no events leak from disarmed periods" 0 (List.length log)

(* driver *)

let analyze_flags_every_broken () =
  let o = Analyze.analyze_all () in
  List.iter
    (fun (r : Analyze.protocol_report) ->
      let name = r.Analyze.entry.Registry.cli_name in
      Alcotest.(check bool) (name ^ " meets expectation") true r.Analyze.ok;
      if not r.Analyze.entry.Registry.expect_clean then
        Alcotest.(check bool) (name ^ " flagged") true r.Analyze.flagged)
    o.Analyze.reports;
  Alcotest.(check bool) "engine certified" true (Race.race_free o.Analyze.engine);
  Alcotest.(check bool) "planted caught" false (Race.race_free o.Analyze.planted);
  Alcotest.(check bool) "overall gate passes" true o.Analyze.ok

(* Registry <-> catalog lockstep: every consensus protocol the CLI can
   name is analyzed by the gate, and every gate entry is reachable from
   the CLI.  A protocol added to lib/protocols without a registry entry
   must fail analyze --all loudly, not slip through unanalyzed. *)
let registry_catalog_lockstep () =
  let sorted l = List.sort compare l in
  Alcotest.(check (list string)) "registry = catalog"
    (sorted (Ts_protocols.Catalog.names ()))
    (sorted (Ts_analysis.Registry.names ()));
  let o = Analyze.analyze_all ~domains:1 () in
  Alcotest.(check (list string)) "no uncataloged entries" [] o.Analyze.uncataloged;
  Alcotest.(check (list string)) "no unregistered protocols" [] o.Analyze.unregistered

let json_escaping () =
  Alcotest.(check string) "escapes" {|{"k":"a\"b\\c\n\u0007"}|}
    (Json.to_string (Json.Obj [ "k", Json.Str "a\"b\\c\n\007" ]))

(* Par.outcomes_array's option strip: unreachable through the public API,
   so covered through the documented testing hook. *)
let par_strip_slot () =
  Alcotest.(check int) "present slot passes through" 7
    (Par.Internal.strip_slot 3 (Some 7));
  Alcotest.check_raises "missing slot names itself"
    (Invalid_argument
       "Par.outcomes_array: no outcome for item 3: a worker slot went missing \
        during stride reassembly")
    (fun () -> ignore (Par.Internal.strip_slot 3 None))

let suite =
  ( "analysis",
    [
      Alcotest.test_case "lint: racing clean, sane summary" `Quick lint_racing_clean;
      Alcotest.test_case "lint: rogue writer flagged" `Quick lint_rogue_flagged;
      Alcotest.test_case "lint: non-binary decide flagged" `Quick lint_const_flagged;
      Alcotest.test_case "lint: insomniac can never decide" `Quick
        lint_spin_unreachable_decide;
      Alcotest.test_case "lint: swap outside read/write claims" `Quick
        lint_swap_outside_claims;
      Alcotest.test_case "lint: undeclared coin flip" `Quick lint_undeclared_flip;
      Alcotest.test_case "determinism: racing clean" `Quick determinism_racing_clean;
      Alcotest.test_case "determinism: declared coins clean" `Quick
        determinism_randomized_clean;
      Alcotest.test_case "determinism: hidden ref caught" `Quick determinism_hidden_ref;
      Alcotest.test_case "determinism: unstable poised caught" `Quick
        determinism_unstable_poised;
      Alcotest.test_case "race: unordered writes race" `Quick race_unordered_writes;
      Alcotest.test_case "race: fork/join edges order" `Quick race_fork_join_orders;
      Alcotest.test_case "race: unjoined child races" `Quick race_fork_without_join;
      Alcotest.test_case "race: atomics synchronize" `Quick race_atomics_do_not_race;
      Alcotest.test_case "race: reads never race" `Quick race_reads_do_not_race;
      Alcotest.test_case "race: planted fixture caught" `Quick race_planted_caught;
      Alcotest.test_case "race: engine certified race-free" `Quick race_engine_certified;
      Alcotest.test_case "trace: disarmed logging is inert" `Quick trace_disarmed_is_free;
      Alcotest.test_case "analyze: registry/catalog lockstep" `Slow
        registry_catalog_lockstep;
      Alcotest.test_case "analyze: gate matches every expectation" `Slow
        analyze_flags_every_broken;
      Alcotest.test_case "json: string escaping" `Quick json_escaping;
      Alcotest.test_case "par: strip_slot guard" `Quick par_strip_slot;
    ] )
