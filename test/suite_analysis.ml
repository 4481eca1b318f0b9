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

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

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

(* the registry gate *)

(* Run [f] with metrics armed and return its value with the counters. *)
let with_counters f =
  Obs.Metrics.start ();
  let snap = ref None in
  let x = Fun.protect ~finally:(fun () -> snap := Some (Obs.Metrics.stop ())) f in
  let counters = (Option.get !snap).Obs.Metrics.counters in
  (x, fun name -> Option.value ~default:0 (List.assoc_opt name counters))

let verdict_class = function
  | Crosscheck.Agreed b -> Printf.sprintf "agreed %d" b
  | Crosscheck.Diverged _ -> "diverged"
  | Crosscheck.Unavailable _ -> "unavailable"

(* One gate run pins every entry's answer and the work behind it: each
   entry's checks run once, so the property searches, the extra searches
   and the race check cost 51 Explore vectors, and the comparison runs on
   the 10 entries that may be stepped. *)
let gate_matches_every_expectation () =
  let o, counter = with_counters (fun () -> Analyze.gate_all ()) in
  let row (r : Analyze.report) =
    let c = r.Analyze.certificates in
    Printf.sprintf "%s %s %s %d/%d %d/%d%s" r.Analyze.analysis.Analyze.entry.Registry.cli_name
      (if r.Analyze.analysis.Analyze.flagged then "flagged" else "clean")
      (verdict_class r.Analyze.verdict) c.Certify.validated c.Certify.witnesses
      c.Certify.tampers_rejected c.Certify.tampers
      (match r.Analyze.skipped with None -> "" | Some _ -> " skipped")
  in
  Alcotest.(check (list string)) "per-entry results"
    [
      "racing clean agreed 1 2/2 8/8";
      "racing-rand clean agreed 1 2/2 8/8";
      "swap clean agreed 1 2/2 8/8";
      "kset clean diverged 1/1 4/4";
      "multivalued clean agreed 1 0/0 0/0 skipped";
      "swap-chain flagged unavailable 1/1 4/4";
      "broken-lww flagged agreed 1 1/1 4/4";
      "broken-max flagged agreed 1 1/1 4/4";
      "broken-const flagged unavailable 0/0 0/0 skipped";
      "broken-spin flagged unavailable 0/0 0/0 skipped";
      "broken-wait flagged diverged 2/2 8/8";
      "broken-rogue flagged unavailable 0/0 0/0 skipped";
      "broken-scribbler flagged diverged 1/1 4/4";
    ]
    (List.map row o.Analyze.reports);
  List.iter
    (fun (r : Analyze.report) ->
      Alcotest.(check bool)
        (r.Analyze.analysis.Analyze.entry.Registry.cli_name ^ " meets expectation")
        true r.Analyze.ok)
    o.Analyze.reports;
  Alcotest.(check (list (pair string int))) "each entry's work runs once"
    [ ("crosscheck.compared", 10); ("explore.vectors", 51);
      ("explore.configs_explored", 52_991) ]
    (List.map (fun k -> (k, counter k))
       [ "crosscheck.compared"; "explore.vectors"; "explore.configs_explored" ]);
  Alcotest.(check bool) "engine certified" true (Race.race_free o.Analyze.engine);
  Alcotest.(check bool) "planted caught" false (Race.race_free o.Analyze.planted);
  Alcotest.(check (list string)) "no unregistered protocols" [] o.Analyze.unregistered;
  Alcotest.(check bool) "overall gate passes" true o.Analyze.ok;
  (* the daemon serves the first stage; the gate's entry document carries
     that document unchanged *)
  List.iter
    (fun (r : Analyze.report) ->
      let served =
        Analyze.analysis_to_json (Analyze.analyze r.Analyze.analysis.Analyze.entry)
      in
      Alcotest.(check (option string))
        (r.Analyze.analysis.Analyze.entry.Registry.cli_name ^ " first stage")
        (Some (Json.to_string served))
        (Option.map Json.to_string (Json.member "analysis" (Analyze.report_to_json r))))
    o.Analyze.reports

(* Registry <-> catalog lockstep: every consensus protocol the CLI can
   name is gated (entries are built from the catalog, so the converse
   holds by construction).  A protocol added to lib/protocols without a
   registry entry must fail analyze --all loudly, not slip through
   unanalyzed; the gate test above pins its drift list empty. *)
let registry_catalog_lockstep () =
  let sorted l = List.sort compare l in
  Alcotest.(check (list string)) "registry = catalog"
    (sorted (Ts_protocols.Catalog.names ()))
    (sorted (Registry.names ()))

(* One rule for when a protocol may be stepped: determinism errors stop
   the gate as surely as lint errors.  The hidden-ref fixture passes lint,
   so a gate that consulted lint alone would run both engines on it and
   report a spurious divergence (its replays disagree with its own
   certificates). *)
let gate_never_steps_unsafe () =
  let racing = Option.get (Registry.find "racing") in
  let entry =
    { racing with
      Registry.cli_name = "fixture-hidden-ref";
      protocol = Protocol.Packed (hidden_ref_protocol ()) }
  in
  let r, counter = with_counters (fun () -> Analyze.gate entry) in
  let codes =
    List.sort_uniq compare
      (List.map (fun f -> f.Finding.code) (Finding.errors r.Analyze.analysis.Analyze.findings))
  in
  Alcotest.(check bool) "static errors found" true (codes <> []);
  Alcotest.(check bool) "no property search" true
    (Option.is_none r.Analyze.analysis.Analyze.property);
  Alcotest.(check int) "no Explore vector" 0 (counter "explore.vectors");
  Alcotest.(check int) "no comparison" 0 (counter "crosscheck.compared");
  Alcotest.(check int) "no certificate" 0 r.Analyze.certificates.Certify.witnesses;
  (match r.Analyze.verdict with
   | Crosscheck.Unavailable reason ->
     List.iter
       (fun code ->
         Alcotest.(check bool) ("reason names " ^ code) true (contains ~needle:code reason))
       codes
   | v -> Alcotest.failf "verdict should be unavailable, got %s" (verdict_class v));
  Alcotest.(check bool) "the gate fails the entry" false r.Analyze.ok

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
        gate_matches_every_expectation;
      Alcotest.test_case "json: string escaping" `Quick json_escaping;
      Alcotest.test_case "par: strip_slot guard" `Quick par_strip_slot;
      Alcotest.test_case "analyze: static errors keep a protocol unstepped" `Quick
        gate_never_steps_unsafe;
    ] )
