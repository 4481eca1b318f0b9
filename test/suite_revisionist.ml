(* The second lower-bound engine and the two-engine comparison.

   The heart of this suite is differential: both engines run over the
   registry and must claim the same bound with witnesses that replay —
   under generous budgets, under tight ones, and under crash-fault
   plans.  A QCheck property widens the net to randomly generated
   straight-line protocols where the n-1 bound is reachable by
   construction. *)
open Ts_model
open Ts_core
open Ts_protocols
module Rev = Ts_revisionist.Revisionist
module Cert = Ts_cert.Cert
module Crosscheck = Ts_analysis.Crosscheck
module Registry = Ts_analysis.Registry

let complete = function
  | Rev.Complete c -> c
  | Rev.Partial (stop, _) ->
    Alcotest.failf "expected a certificate, engine stopped: %a" Rev.pp_stop stop

let test_construct_racing2 () =
  let proto = Racing.make ~n:2 in
  let c = complete (Rev.construct proto) in
  Alcotest.(check int) "bound is n-1" 1 c.Rev.bound;
  Alcotest.(check int) "one process parked" 1 (List.length c.Rev.parked);
  Alcotest.(check bool) "at least bound registers written" true
    (List.length c.Rev.registers_written >= c.Rev.bound);
  (match Rev.verify c proto with
   | Ok () -> ()
   | Error m -> Alcotest.failf "verify rejected a fresh certificate: %s" m);
  Alcotest.(check (list int)) "nobody excluded" [] c.Rev.excluded

let test_verify_catches_tamper () =
  let proto = Racing.make ~n:2 in
  let c = complete (Rev.construct proto) in
  let bad = { c with Rev.bound = c.Rev.bound + 1 } in
  Alcotest.(check bool) "inflated bound rejected" true
    (Result.is_error (Rev.verify bad proto));
  let bad = { c with Rev.schedule = [] } in
  Alcotest.(check bool) "emptied schedule rejected" true
    (Result.is_error (Rev.verify bad proto))

(* The registry differential: on every entry the gate expects agreement
   on, both engines must complete with the same bound and each witness
   must replay — the same invariant [tightspace analyze --all] gates CI on,
   asserted here engine-to-engine without the CLI in between. *)
let both_engines proto ~budget_l ~budget_r =
  let lemmas =
    match Theorem.theorem1_escalate ~budget:budget_l proto ~initial_horizon:8 with
    | Theorem.Complete c, _ -> c
    | Theorem.Partial _, _ -> Alcotest.fail "lemmas engine stopped"
  in
  let rev =
    match Rev.escalate ~budget:budget_r proto ~initial_solo:32 with
    | Rev.Complete c, _ -> c
    | Rev.Partial (stop, _), _ ->
      Alcotest.failf "revisionist engine stopped: %a" Rev.pp_stop stop
  in
  (lemmas, rev)

let check_agreement name proto ~budget_l ~budget_r =
  let lemmas, rev = both_engines proto ~budget_l ~budget_r in
  (match Theorem.verify lemmas proto with
   | Ok () -> ()
   | Error m -> Alcotest.failf "%s: lemmas witness rejected: %s" name m);
  (match Rev.verify rev proto with
   | Ok () -> ()
   | Error m -> Alcotest.failf "%s: revisionist witness rejected: %s" name m);
  let n = proto.Protocol.num_processes in
  List.iter
    (fun (engine, bound, written) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s bound is n-1" name engine) (n - 1) bound;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s witness writes at least its bound" name engine)
        true
        (List.length written >= bound))
    [
      ("lemmas", lemmas.Theorem.n - 1, lemmas.Theorem.registers_written);
      ("revisionist", rev.Rev.bound, rev.Rev.registers_written);
    ]

let agree_entries () =
  List.filter
    (fun e -> e.Registry.xcheck = Registry.Expect_agree)
    (Registry.all ())

let test_registry_differential () =
  let entries = agree_entries () in
  Alcotest.(check bool) "registry declares agreement entries" true
    (List.length entries >= 3);
  List.iter
    (fun e ->
      let (Protocol.Packed proto) = e.Registry.protocol in
      check_agreement e.Registry.cli_name proto
        ~budget_l:(Budget.create ~deadline:30.0 ())
        ~budget_r:(Budget.create ~deadline:30.0 ()))
    entries

(* The same differential under a tight node cap: either both engines
   still complete and agree, or the capped engine reports a structured
   budget partial — never an exception, never a witness that does not
   replay. *)
let test_differential_under_budget_caps () =
  List.iter
    (fun e ->
      let (Protocol.Packed proto) = e.Registry.protocol in
      let name = e.Registry.cli_name in
      match
        Rev.escalate
          ~budget:(Budget.create ~max_nodes:40 ())
          proto ~initial_solo:32
      with
      | Rev.Complete c, _ ->
        (match Rev.verify c proto with
         | Ok () -> check_agreement name proto
                      ~budget_l:(Budget.create ~deadline:30.0 ())
                      ~budget_r:(Budget.create ~max_nodes:40 ())
         | Error m -> Alcotest.failf "%s: capped witness rejected: %s" name m)
      | Rev.Partial (Rev.Out_of_budget (Budget.Node_cap cap), p), _ ->
        Alcotest.(check int) "breach names the cap" 40 cap;
        Alcotest.(check bool) "progress counters populated" true
          (p.Rev.private_steps > 0)
      | Rev.Partial (stop, _), _ ->
        Alcotest.failf "%s: expected node-cap partial, got %a" name Rev.pp_stop
          stop)
    (agree_entries ())

let test_tiny_budget_is_partial () =
  let proto = Racing.make ~n:3 in
  match Rev.construct ~budget:(Budget.create ~max_nodes:1 ()) proto with
  | Rev.Partial (Rev.Out_of_budget (Budget.Node_cap 1), _) -> ()
  | Rev.Partial (stop, _) ->
    Alcotest.failf "wrong stop: %a" Rev.pp_stop stop
  | Rev.Complete _ -> Alcotest.fail "one node cannot complete a construction"

(* Crash-fault plans: crashed processes are excluded from the start, the
   bound drops to survivors-1 and the witness never schedules them. *)
let test_fault_plan_drops_bound () =
  let proto = Racing.make ~n:3 in
  let c = complete (Rev.construct ~faults:(Fault.crash_after 2 0) proto) in
  Alcotest.(check (list int)) "p2 excluded" [ 2 ] c.Rev.excluded;
  Alcotest.(check int) "bound is survivors-1" 1 c.Rev.bound;
  Alcotest.(check bool) "p2 never scheduled" true
    (List.for_all (fun (ev : Execution.event) -> ev.Execution.pid <> 2)
       c.Rev.schedule);
  match Rev.verify c proto with
  | Ok () -> ()
  | Error m -> Alcotest.failf "faulted witness rejected: %s" m

let test_fault_needs_two_survivors () =
  let proto = Racing.make ~n:2 in
  Alcotest.(check bool) "1 survivor refused" true
    (match Rev.construct ~faults:(Fault.crash_after 1 0) proto with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* The agreement differential must also hold with faults on both sides:
   both engines see the same survivor set... the lemmas engine has no
   fault mode, so assert the revisionist bound directly against the
   survivor arithmetic instead. *)
let test_fault_bound_arithmetic () =
  List.iter
    (fun n ->
      let proto = Racing.make ~n in
      let c = complete (Rev.construct ~faults:(Fault.crash_after (n - 1) 0) proto) in
      Alcotest.(check int)
        (Printf.sprintf "n=%d, one crash: bound n-2" n)
        (n - 2) c.Rev.bound)
    [ 3; 4 ]

(* Certificates from revisionist witnesses go through the same
   certificate stack as first-engine ones: engine replay, independent
   micro-checker, and rejection of the excluded-process case (a
   survivors-1 claim is not the n-1 theorem). *)
let test_certificate_roundtrip () =
  let proto = Racing.make ~n:2 in
  let c = complete (Rev.construct proto) in
  let cert = Cert.of_revisionist proto c in
  (match Cert.validate proto cert with
   | Ok () -> ()
   | Error m -> Alcotest.failf "engine replay rejected: %s" m);
  (match Cert.microcheck cert with
   | Ok () -> ()
   | Error m -> Alcotest.failf "micro-checker rejected: %s" m);
  match Cert.of_string (Cert.to_string cert) with
  | Ok cert' ->
    Alcotest.(check string) "serialization round-trips"
      (Cert.to_string cert) (Cert.to_string cert')
  | Error m -> Alcotest.failf "re-parse failed: %s" m

let test_certificate_refuses_faulted () =
  let proto = Racing.make ~n:3 in
  let c = complete (Rev.construct ~faults:(Fault.crash_after 2 0) proto) in
  Alcotest.(check bool) "faulted run yields no space_bound certificate" true
    (match Cert.of_revisionist proto c with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* The gate's comparison over the registry: every entry it gates on
   ([Expect_agree], [Expect_diverge]) meets its expectation at the gate's
   15 s budget, the planted broken-scribbler fixture is caught as a
   divergence and racing agrees on bound 1 — the property the comparison
   stage of [tightspace analyze --all] depends on. *)
let test_crosscheck_report () =
  let verdicts =
    List.filter_map
      (fun e ->
        match e.Registry.xcheck with
        | Registry.Informational -> None
        | (Registry.Expect_agree | Registry.Expect_diverge) as expect ->
          let (Protocol.Packed proto) = e.Registry.protocol in
          let c =
            Crosscheck.compare_engines
              ~budget:(fun () -> Budget.create ~deadline:15.0 ())
              proto
          in
          Some (e.Registry.cli_name, expect, c.Crosscheck.verdict))
      (Registry.all ())
  in
  List.iter
    (fun (name, expect, v) ->
      match (expect, v) with
      | Registry.Expect_agree, Crosscheck.Agreed _
      | Registry.Expect_diverge, Crosscheck.Diverged _ -> ()
      | _ -> Alcotest.failf "%s: unexpected verdict %a" name Crosscheck.pp_verdict v)
    verdicts;
  let verdict name =
    match List.find_opt (fun (n, _, _) -> n = name) verdicts with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "%s is not gated by the comparison" name
  in
  (match verdict "broken-scribbler" with
   | Crosscheck.Diverged _ -> ()
   | v -> Alcotest.failf "planted fixture not caught: %a" Crosscheck.pp_verdict v);
  match verdict "racing" with
  | Crosscheck.Agreed 1 -> ()
  | _ -> Alcotest.fail "racing should agree on bound 1"

(* The one verdict rule, end to end.  On the planted fixture the
   revisionist engine completes while the Lemmas engine stops at its own
   horizon (Proposition 2 fails): a divergence, whatever the budget. *)
let test_comparison_scribbler_diverges () =
  let c = Crosscheck.compare_engines (Broken.scribbler ~n:2) in
  (match (c.Crosscheck.lemmas.Crosscheck.result, c.Crosscheck.revisionist.Crosscheck.result) with
   | Crosscheck.Stopped (Theorem.Wall _), Crosscheck.Completed (_, []) -> ()
   | _ -> Alcotest.fail "expected a walled Lemmas run and an accepted revisionist one");
  match c.Crosscheck.verdict with
  | Crosscheck.Diverged _ -> ()
  | _ -> Alcotest.fail "broken-scribbler must diverge"

(* A budget trip is never a divergence: it says nothing about the
   protocol.  Ten nodes stop the Lemmas walk on racing-2 while the
   revisionist engine completes in five private steps. *)
let test_comparison_budget_trip_unavailable () =
  let c =
    Crosscheck.compare_engines
      ~budget:(fun () -> Budget.create ~max_nodes:10 ())
      (Racing.make ~n:2)
  in
  (match (c.Crosscheck.lemmas.Crosscheck.result, c.Crosscheck.revisionist.Crosscheck.result) with
   | Crosscheck.Stopped (Theorem.Out_of_budget _), Crosscheck.Completed (_, []) -> ()
   | _ -> Alcotest.fail "expected a tripped Lemmas run and an accepted revisionist one");
  (match c.Crosscheck.verdict with
   | Crosscheck.Unavailable _ -> ()
   | _ -> Alcotest.fail "a Lemmas budget trip must leave nothing to compare");
  (* the mirror case through the rule itself *)
  match
    Crosscheck.verdict c.Crosscheck.revisionist.Crosscheck.result
      (Crosscheck.Stopped (Theorem.Out_of_budget (Budget.Node_cap 10)))
  with
  | Crosscheck.Unavailable _ -> ()
  | _ -> Alcotest.fail "a revisionist budget trip must leave nothing to compare"

(* Random straight-line protocols: process p performs a few reads of
   shared registers, writes its own private register (index p, disjoint
   from the read pool by construction: reads target n..n+2), then
   decides its input.  Every process's first write is fresh, so the
   revisionist construction must complete with bound exactly n-1, and
   the witness must replay. *)
type straightline = { prog : Action.t list }

let straightline_protocol ~n ~reads =
  (* reads.(p) is the list of registers p reads before announcing *)
  {
    Protocol.name = Printf.sprintf "straightline-%d" n;
    description = "random reads, one fresh write, decide input";
    num_processes = n;
    num_registers = n + 3;
    init =
      (fun ~pid ~input ->
        {
          prog =
            List.map (fun r -> Action.Read r) reads.(pid)
            @ [ Action.Write (pid, input); Action.Decide input ];
        });
    poised =
      (fun st ->
        match st.prog with a :: _ -> a | [] -> assert false);
    on_read = (fun st _ -> { prog = List.tl st.prog });
    on_write = (fun st -> { prog = List.tl st.prog });
    on_swap = Protocol.no_swap;
    on_flip = Protocol.no_flip;
    pp_state =
      (fun ppf st -> Fmt.pf ppf "straightline(%d left)" (List.length st.prog));
    encode = Protocol.Generic;
  }

let prop_straightline_completes =
  QCheck.Test.make ~name:"revisionist: straight-line protocols reach n-1"
    ~count:60
    QCheck.(pair (int_range 2 5) (list_of_size (Gen.int_range 0 8) (int_range 0 2)))
    (fun (n, shape) ->
      (* the shrinker may step outside the generator's range *)
      QCheck.assume (n >= 2 && n <= 5 && List.length shape <= 8);
      let reads =
        Array.init n (fun p ->
            (* vary the read prefix per process from the generated shape *)
            List.filteri (fun i _ -> (i + p) mod 2 = 0) shape
            |> List.map (fun r -> n + r))
      in
      let proto = straightline_protocol ~n ~reads in
      match Rev.construct ~max_solo:16 proto with
      | Rev.Complete c ->
        c.Rev.bound = n - 1
        && Rev.verify c proto = Ok ()
        && List.length c.Rev.registers_written >= n - 1
      | Rev.Partial _ -> false)

let prop_complete_implies_verified =
  QCheck.Test.make
    ~name:"revisionist: racing at random n always verifies and agrees"
    ~count:20
    QCheck.(int_range 2 4)
    (fun n ->
      let proto = Racing.make ~n in
      match Rev.escalate proto ~initial_solo:(10 * n) with
      | Rev.Complete c, _ ->
        c.Rev.bound = n - 1 && Rev.verify c proto = Ok ()
      | Rev.Partial _, _ -> false)

(* The witness policy both engines share ([Theorem.policy]): without an
   allowance it escalates from 10·n and doubles on a wall four times
   (broken-const at n = 2 stops at 20·2⁴ = 320); an explicit allowance
   is one attempt at exactly that value; a budget breach ends the
   escalation at its first allowance. *)
let test_shared_witness_policy () =
  let packed name = Result.get_ok (Catalog.find name ~n:2) in
  let broken_const = packed "broken-const" and racing = packed "racing" in
  let check_engine engine witness allowance_of =
    let stops what ?budget ?allowance proto ~stop ~at =
      match witness budget allowance proto with
      | Theorem.Partial (s, p), used when stop s ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s, %s: allowance used, progress allowance" engine what)
          (at, at) (used, allowance_of p)
      | Theorem.Partial (s, _), _ ->
        Alcotest.failf "%s, %s: wrong stop: %a" engine what Theorem.pp_stop s
      | Theorem.Complete _, _ -> Alcotest.failf "%s, %s: completed" engine what
    in
    let wall = function Theorem.Wall _ -> true | Theorem.Out_of_budget _ -> false in
    stops "broken-const" broken_const ~stop:wall ~at:320;
    stops "broken-const at 4" ~allowance:4 broken_const ~stop:wall ~at:4;
    stops "racing, 1 node" ~budget:(Budget.create ~max_nodes:1 ()) racing
      ~stop:(function
        | Theorem.Out_of_budget (Budget.Node_cap 1) -> true
        | _ -> false)
      ~at:20;
    match witness None None racing with
    | Theorem.Complete _, used ->
      Alcotest.(check int) (engine ^ ", racing: completes at") 20 used
    | Theorem.Partial (s, _), _ ->
      Alcotest.failf "%s, racing: stopped: %a" engine Theorem.pp_stop s
  in
  check_engine "lemmas"
    (fun budget horizon (Protocol.Packed proto) ->
      Theorem.witness ?budget ?horizon proto)
    (fun p -> p.Theorem.horizon);
  check_engine "revisionist"
    (fun budget max_solo (Protocol.Packed proto) ->
      Rev.witness ?budget ?max_solo proto)
    (fun p -> p.Rev.max_solo)

let suite =
  ( "revisionist",
    [
      Alcotest.test_case "construct racing n=2" `Quick test_construct_racing2;
      Alcotest.test_case "verify catches tampering" `Quick
        test_verify_catches_tamper;
      Alcotest.test_case "registry differential (both engines agree)" `Quick
        test_registry_differential;
      Alcotest.test_case "differential under budget caps" `Quick
        test_differential_under_budget_caps;
      Alcotest.test_case "tiny budget degrades to partial" `Quick
        test_tiny_budget_is_partial;
      Alcotest.test_case "crash plan drops the bound" `Quick
        test_fault_plan_drops_bound;
      Alcotest.test_case "fewer than 2 survivors refused" `Quick
        test_fault_needs_two_survivors;
      Alcotest.test_case "fault bound arithmetic" `Quick
        test_fault_bound_arithmetic;
      Alcotest.test_case "certificate round-trip" `Quick
        test_certificate_roundtrip;
      Alcotest.test_case "no certificate for faulted runs" `Quick
        test_certificate_refuses_faulted;
      Alcotest.test_case "crosscheck gate + planted divergence" `Quick
        test_crosscheck_report;
      QCheck_alcotest.to_alcotest prop_straightline_completes;
      QCheck_alcotest.to_alcotest prop_complete_implies_verified;
      Alcotest.test_case "comparison: broken-scribbler diverges" `Quick
        test_comparison_scribbler_diverges;
      Alcotest.test_case "comparison: a budget trip is unavailable" `Quick
        test_comparison_budget_trip_unavailable;
      Alcotest.test_case "witness policy: shared by both engines" `Quick
        test_shared_witness_policy;
    ] )
