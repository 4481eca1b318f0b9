(* The lower-bound engine: refined valency, lemmas, Theorem 1. *)
open Ts_model
open Ts_core
open Ts_protocols

let racing2 () = Valency.create (Racing.make ~n:2) ~horizon:40
let racing3 () = Valency.create (Racing.make ~n:3) ~horizon:60

let initial t =
  let proto = Valency.protocol t in
  let n = proto.Protocol.num_processes in
  Config.initial proto ~inputs:(Array.init n (fun p -> Value.int (if p = 1 then 1 else 0)))

let test_prop2_initial_valencies () =
  let t = racing2 () in
  let i0 = initial t in
  (* {p_v} is v-univalent from I (Proposition 2) *)
  Alcotest.(check (option int)) "{p0} 0-univalent" (Some 0)
    (Option.map Value.to_int (Valency.univalent_value t i0 (Pset.singleton 0)));
  Alcotest.(check (option int)) "{p1} 1-univalent" (Some 1)
    (Option.map Value.to_int (Valency.univalent_value t i0 (Pset.singleton 1)));
  Alcotest.(check bool) "{p0,p1} bivalent" true (Valency.is_bivalent t i0 (Pset.all 2))

let test_prop1_superset_can_decide () =
  let t = racing3 () in
  let i0 = initial t in
  (* Prop 1(ii): {p0} can decide 0, so any superset can *)
  List.iter
    (fun ps ->
      Alcotest.(check bool) "superset decides 0" true
        (Valency.can_decide t i0 ps Valency.zero <> None))
    [ Pset.of_list [ 0 ]; Pset.of_list [ 0; 1 ]; Pset.of_list [ 0; 2 ]; Pset.all 3 ]

let test_prop1_decided_configuration () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  (* run p0 solo to a decision; afterwards every set "can decide" 0 with
     the empty execution, and is 0-univalent (Prop 1(iv) + agreement) *)
  let cfg, _, d = Execution.solo proto i0 0 ~flips:(fun _ -> true) ~budget:1000 in
  Alcotest.(check (option int)) "p0 decided 0" (Some 0) (Option.map Value.to_int d);
  Alcotest.(check bool) "empty witness suffices" true
    (Valency.can_decide t cfg Pset.empty Valency.zero = Some []);
  Alcotest.(check (option int)) "{p1} now 0-univalent" (Some 0)
    (Option.map Value.to_int (Valency.univalent_value t cfg (Pset.singleton 1)))

let test_witnesses_replay () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  match Valency.classify t i0 (Pset.all 2) with
  | Valency.Bivalent (w0, w1) ->
    List.iter
      (fun (w, v) ->
        let cfg, _ = Execution.apply proto i0 w in
        Alcotest.(check bool) "witness decides claimed value" true
          (List.exists (Value.equal v) (Config.decided_values cfg)))
      [ w0, Valency.zero; w1, Valency.one ]
  | _ -> Alcotest.fail "initial configuration should be bivalent for {p0,p1}"

let test_memoization () =
  let t = racing2 () in
  let i0 = initial t in
  ignore (Valency.can_decide t i0 (Pset.all 2) Valency.zero);
  let s1 = Valency.searches t in
  ignore (Valency.can_decide t i0 (Pset.all 2) Valency.zero);
  Alcotest.(check int) "second query served from memo" s1 (Valency.searches t)

let test_lemma1_requires_three () =
  let t = racing2 () in
  Alcotest.check_raises "|P| >= 3" (Invalid_argument "Lemmas.lemma1: |P| must be >= 3")
    (fun () -> ignore (Lemmas.lemma1 t (initial t) (Pset.all 2)))

let test_lemma1_racing3 () =
  let t = racing3 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  let { Lemmas.phi; z } = Lemmas.lemma1 t i0 (Pset.all 3) in
  let cfg, _ = Execution.apply proto i0 phi in
  Alcotest.(check bool) "P - {z} bivalent after phi" true
    (Valency.is_bivalent t cfg (Pset.remove z (Pset.all 3)));
  Alcotest.(check bool) "phi is P-only" true
    (Pset.subset (Execution.participants (snd (Execution.apply proto i0 phi))) (Pset.all 3))

let test_solo_deciding () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  let zeta = Lemmas.solo_deciding t i0 1 in
  let cfg, trace = Execution.apply proto i0 zeta in
  Alcotest.(check bool) "z decided" true (Config.has_decided cfg 1 <> None);
  Alcotest.(check (list int)) "only z took steps" [ 1 ]
    (Pset.to_list (Execution.participants trace))

let test_split_at_uncovered_write () =
  let t = racing2 () in
  let i0 = initial t in
  let zeta = Lemmas.solo_deciding t i0 0 in
  let prefix, cfg, r = Lemmas.split_at_uncovered_write t i0 0 ~covered:[] ~zeta in
  (* with nothing covered, the split stops at the very first write *)
  (match Config.poised (Valency.protocol t) cfg 0 with
   | Some (Action.Write (r', _)) -> Alcotest.(check int) "poised at reported register" r r'
   | _ -> Alcotest.fail "not poised at a write");
  let _, trace = Execution.apply (Valency.protocol t) i0 prefix in
  Alcotest.(check (list int)) "prefix contains no writes" []
    (Execution.written_registers trace)

let test_lemma2_holds_on_initial () =
  let t = racing2 () in
  Alcotest.(check bool) "deciding solo execution must write fresh" true
    (Lemmas.lemma2_holds t (initial t) ~r:Pset.empty ~z:0)

let test_lemma3_via_nice_configuration () =
  let t = racing3 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  let nice = Theorem.lemma4 t i0 (Pset.all 3) in
  Alcotest.(check int) "one covering process" 1 (Pset.cardinal nice.Theorem.cover);
  Alcotest.(check bool) "pair bivalent" true
    (Valency.is_bivalent t nice.Theorem.cfg nice.Theorem.q_pair);
  Alcotest.(check bool) "cover well spread" true
    (Covering.well_spread proto nice.Theorem.cfg nice.Theorem.cover);
  let l3 = Lemmas.lemma3 t nice.Theorem.cfg ~p:(Pset.all 3) ~r:nice.Theorem.cover in
  (* re-verify the lemma's guarantee *)
  let beta = Covering.block_write nice.Theorem.cover in
  let cfg', _ = Execution.apply proto nice.Theorem.cfg (l3.Lemmas.phi3 @ beta) in
  Alcotest.(check bool) "R ∪ {q} bivalent after phi·beta" true
    (Valency.is_bivalent t cfg' (Pset.add l3.Lemmas.q nice.Theorem.cover));
  Alcotest.(check bool) "q is in the pair" true (Pset.mem l3.Lemmas.q nice.Theorem.q_pair)

let test_lemma3_premises () =
  let t = racing3 () in
  let i0 = initial t in
  Alcotest.check_raises "R empty rejected" (Invalid_argument "Lemmas.lemma3: R must be non-empty")
    (fun () -> ignore (Lemmas.lemma3 t i0 ~p:(Pset.all 3) ~r:Pset.empty));
  Alcotest.check_raises "R must cover" (Invalid_argument "Lemmas.lemma3: R is not a covering set")
    (fun () -> ignore (Lemmas.lemma3 t i0 ~p:(Pset.all 3) ~r:(Pset.singleton 0)))

let check_certificate t =
  let cert = Theorem.theorem1 t in
  Alcotest.(check bool) "enough registers written" true
    (List.length cert.Theorem.registers_written >= cert.Theorem.n - 1);
  (match Theorem.verify cert (Valency.protocol t) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "certificate replay failed: %s" e);
  cert

let test_theorem1_n2 () =
  let cert = check_certificate (racing2 ()) in
  Alcotest.(check int) "n" 2 cert.Theorem.n

let test_theorem1_randomized () =
  (* the bound covers randomized protocols: coins are resolved
     adversarially by the oracle (nondeterministic solo termination) *)
  let t = Valency.create (Racing.make_randomized ~n:2) ~horizon:40 in
  let cert = Theorem.theorem1 t in
  Alcotest.(check bool) "enough registers" true
    (List.length cert.Theorem.registers_written >= 1);
  (match Theorem.verify cert (Racing.make_randomized ~n:2) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "randomized replay failed: %s" e)

let test_theorem1_randomized_n3 () =
  let t = Valency.create (Racing.make_randomized ~n:3) ~horizon:70 in
  let cert = Theorem.theorem1 t in
  Alcotest.(check bool) "enough registers" true
    (List.length cert.Theorem.registers_written >= 2)

let test_theorem1_n3 () =
  let cert = check_certificate (racing3 ()) in
  Alcotest.(check int) "n" 3 cert.Theorem.n;
  Alcotest.(check int) "covered registers at nice configuration" 1
    (List.length cert.Theorem.covered_registers);
  Alcotest.(check bool) "fresh register is fresh" true
    (not (List.mem cert.Theorem.fresh_register cert.Theorem.covered_registers))

let test_theorem1_escalate_deepens () =
  (* start hopeless, let iterative deepening find a sufficient horizon:
     six doublings reach 128 *)
  match Theorem.theorem1_escalate (Racing.make ~n:2) ~initial_horizon:2 ~retries:6 with
  | Theorem.Complete cert, horizon ->
    Alcotest.(check bool) "horizon grew" true (horizon > 2);
    Alcotest.(check bool) "certificate valid" true
      (List.length cert.Theorem.registers_written >= 1)
  | Theorem.Partial (stop, _), _ ->
    Alcotest.failf "deepening stopped: %a" Theorem.pp_stop stop

let test_theorem1_escalate_gives_up () =
  (* one doubling (2 -> 4) is not enough for racing-3: the retries run
     out at the horizon wall, at the last horizon tried *)
  match Theorem.theorem1_escalate (Racing.make ~n:3) ~initial_horizon:2 ~retries:1 with
  | Theorem.Partial (Theorem.Horizon_wall _, _), horizon ->
    Alcotest.(check int) "max horizon respected" 4 horizon
  | _ -> Alcotest.fail "expected Partial (Horizon_wall _, _)"

let test_theorem1_small_horizon_raises () =
  let t = Valency.create (Racing.make ~n:3) ~horizon:5 in
  Alcotest.(check bool) "horizon exceeded" true
    (match Theorem.theorem1 t with
     | _ -> false
     | exception Valency.Horizon_exceeded _ -> true)

let test_budget_guard () =
  Alcotest.(check bool) "non-positive limit rejected" true
    (match Budget.create ~max_nodes:0 () with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "unlimited is unlimited" true (Budget.is_unlimited Budget.unlimited);
  Budget.charge Budget.unlimited 1_000_000;
  Budget.check Budget.unlimited;
  let b = Budget.create ~max_nodes:100 () in
  Budget.charge b 60;
  Alcotest.(check int) "spent counts" 60 (Budget.spent b);
  Alcotest.(check bool) "not yet breached" true (Budget.breached b = None);
  Alcotest.(check bool) "node cap trips" true
    (match Budget.charge b 60 with
     | () -> false
     | exception Budget.Exhausted (Budget.Node_cap _) -> true);
  (* an expired deadline is caught by check without charging *)
  let d = Budget.create ~deadline:0.002 () in
  Unix.sleepf 0.01;
  Alcotest.(check bool) "deadline trips" true
    (match Budget.check d with
     | () -> false
     | exception Budget.Exhausted (Budget.Deadline _) -> true)

let test_theorem1_budget_partial () =
  (* a capped run degrades to a structured partial outcome, not an
     exception or a hang *)
  let proto = Racing.make ~n:2 in
  let t = Valency.create ~budget:(Budget.create ~max_nodes:5 ()) proto ~horizon:40 in
  match Theorem.theorem1_outcome t with
  | Theorem.Partial (Theorem.Out_of_budget (Budget.Node_cap _), p) ->
    Alcotest.(check int) "progress reports the horizon" 40 p.Theorem.horizon;
    Alcotest.(check bool) "some oracle work recorded" true (p.Theorem.nodes_expanded > 0)
  | Theorem.Partial (s, _) -> Alcotest.failf "wrong stop: %a" Theorem.pp_stop s
  | Theorem.Complete _ -> Alcotest.fail "5 nodes cannot complete the construction"

let test_escalation_completes_like_unbounded () =
  (* the acceptance path: the escalation wrapper, given room, produces the
     same certificate as a plain unbounded run *)
  let proto = Racing.make ~n:2 in
  let unbounded = Theorem.theorem1 (Valency.create proto ~horizon:40) in
  (match Theorem.theorem1_escalate proto ~initial_horizon:40 with
   | Theorem.Complete cert, horizon ->
     Alcotest.(check int) "no escalation needed" 40 horizon;
     Alcotest.(check bool) "same schedule" true
       (cert.Theorem.schedule = unbounded.Theorem.schedule);
     Alcotest.(check bool) "same registers" true
       (cert.Theorem.registers_written = unbounded.Theorem.registers_written)
   | Theorem.Partial (s, _), _ -> Alcotest.failf "unexpected partial: %a" Theorem.pp_stop s);
  (* starting hopeless, it escalates to the same certificate *)
  match Theorem.theorem1_escalate proto ~initial_horizon:2 ~retries:6 with
  | Theorem.Complete cert, horizon ->
    Alcotest.(check bool) "horizon grew" true (horizon > 2);
    Alcotest.(check bool) "same registers after escalation" true
      (cert.Theorem.registers_written = unbounded.Theorem.registers_written)
  | Theorem.Partial (s, _), _ -> Alcotest.failf "escalation failed: %a" Theorem.pp_stop s

let test_escalation_respects_budget () =
  (* the budget spans all attempts: a tiny allowance stops the retry loop *)
  match
    Theorem.theorem1_escalate ~budget:(Budget.create ~max_nodes:5 ())
      (Racing.make ~n:2) ~initial_horizon:40
  with
  | Theorem.Partial (Theorem.Out_of_budget _, _), _ -> ()
  | Theorem.Complete _, _ -> Alcotest.fail "5 nodes cannot complete the construction"
  | Theorem.Partial (Theorem.Horizon_wall _, _), _ ->
    Alcotest.fail "budget should trip before the horizon at depth 40"

let test_verify_detects_tampering () =
  let cert = Theorem.theorem1 (racing2 ()) in
  let tampered = { cert with Theorem.registers_written = [] } in
  Alcotest.(check bool) "tampered certificate rejected" true
    (Theorem.verify tampered (Racing.make ~n:2) <> Ok ());
  Alcotest.(check bool) "wrong protocol rejected" true
    (Theorem.verify cert (Racing.make ~n:3) <> Ok ())

let test_certificate_pp () =
  let cert = Theorem.theorem1 (racing2 ()) in
  let s = Format.asprintf "%a" Theorem.pp_certificate cert in
  Alcotest.(check bool) "mentions the bound" true
    (String.length s > 0 && String.split_on_char '\n' s <> [])

let test_bounds () =
  Alcotest.(check int) "zhu 8" 7 (Bounds.zhu_space 8);
  Alcotest.(check int) "fhs 16" 4 (Bounds.fhs_space 16);
  Alcotest.(check int) "fhs 17 rounds up" 5 (Bounds.fhs_space 17);
  Alcotest.(check int) "upper" 8 (Bounds.known_upper_space 8);
  Alcotest.(check int) "jtt" 7 (Bounds.jtt_space 8);
  Alcotest.(check bool) "n log n" true (abs_float (Bounds.fan_lynch_cost 8 -. 24.) < 1e-9);
  Alcotest.(check bool) "log2 4! = log2 24" true
    (abs_float (Bounds.log2_factorial 4 -. (log 24. /. log 2.)) < 1e-9);
  Alcotest.(check bool) "attiya-censor" true (Bounds.attiya_censor_steps 7 = 49);
  Alcotest.(check bool) "leader space grows slowly" true (Bounds.leader_election_space 64 <= 8)

let test_covering_helpers () =
  let t = racing2 () in
  let proto = Valency.protocol t in
  let i0 = initial t in
  (* drive p0 to its first write: it covers that register *)
  let zeta = Lemmas.solo_deciding t i0 0 in
  let prefix, cfg, r = Lemmas.split_at_uncovered_write t i0 0 ~covered:[] ~zeta in
  ignore prefix;
  Alcotest.(check bool) "is_covering" true (Covering.is_covering proto cfg (Pset.singleton 0));
  Alcotest.(check (list int)) "covered_set" [ r ] (Covering.covered_set proto cfg (Pset.singleton 0));
  Alcotest.(check bool) "well_spread singleton" true (Covering.well_spread proto cfg (Pset.singleton 0));
  Alcotest.(check int) "block write schedule" 1 (List.length (Covering.block_write (Pset.singleton 0)));
  Alcotest.(check int) "empty block write" 0 (List.length (Covering.block_write Pset.empty))

(* --- differential: yes/no answers against the P-wide search ------------- *)

(* [Ts_reference] is this library's Theorem 1 walk compiled against an
   oracle whose [is_bivalent] and [decides] come from one search over the
   whole participant set (test/reference/valency.ml), as every yes/no
   answer did before members' solo witnesses were consulted.  The two
   engines must agree exactly: the same schedule and registers written,
   the same refusal message, the same raised exception. *)
module Reference = Ts_reference

let outcome f = match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)

(* every catalog protocol at n = 2 and 3; this covers every registry
   instance, since each is a catalog protocol at one of those n *)
let catalog_instances () =
  List.concat_map
    (fun name ->
      List.filter_map
        (fun n ->
          match Catalog.find name ~n with
          | Ok p -> Some (Printf.sprintf "%s-%d" name n, p)
          | Error _ -> None)
        [ 2; 3 ])
    (Catalog.names ())

let differential_horizons = [ 4; 8; 15; 30; 60 ]

let test_theorem1_matches_reference () =
  List.iter
    (fun (name, Protocol.Packed proto) ->
      List.iter
        (fun horizon ->
          let expected =
            outcome (fun () ->
                let c = Reference.Theorem.theorem1 (Valency.create proto ~horizon) in
                c.Reference.Theorem.schedule, c.Reference.Theorem.registers_written)
          in
          let got =
            outcome (fun () ->
                let c = Theorem.theorem1 (Valency.create proto ~horizon) in
                c.Theorem.schedule, c.Theorem.registers_written)
          in
          if got <> expected then
            Alcotest.failf "%s at horizon %d: Theorem 1 differs from the reference (%s)" name
              horizon
              (match got, expected with
               | Error m, _ | _, Error m -> m
               | Ok _, Ok _ -> "schedules or registers differ"))
        differential_horizons)
    (catalog_instances ())

(* The same comparison question by question: [is_bivalent] and [decides]
   for both values from every binary input vector, over every non-empty
   participant set.  Memo entries left by one question feed the next, so
   two oracles per protocol and horizon ask in different orders: [t] asks
   [is_bivalent] first, [t'] asks [decides] 1 first and so meets
   [is_bivalent] with that value possibly in the exact memo.  Horizon 60 is
   left to the Theorem 1 comparison: from a univalent initial
   configuration the reference searches the whole 60-step ball. *)
let test_boolean_answers_match_reference () =
  List.iter
    (fun (name, Protocol.Packed proto) ->
      let n = proto.Protocol.num_processes in
      List.iter
        (fun horizon ->
          let t = Valency.create proto ~horizon and t' = Valency.create proto ~horizon in
          let r = Reference.Valency.create proto ~horizon in
          List.iter
            (fun inputs ->
              let cfg = Config.initial proto ~inputs in
              for mask = 1 to (1 lsl n) - 1 do
                let ps = Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) in
                let check what expected got =
                  if got <> expected then
                    Alcotest.failf "%s h=%d inputs %a %a: %s differs from the reference" name
                      horizon Fmt.(array ~sep:(any ",") Value.pp) inputs Pset.pp ps what
                in
                let bivalent = outcome (fun () -> Reference.Valency.is_bivalent r cfg ps) in
                let decides v = outcome (fun () -> Reference.Valency.decides r cfg ps v) in
                let check_decides oracle v =
                  check (Fmt.str "decides %a" Value.pp v) (decides v)
                    (outcome (fun () -> Valency.decides oracle cfg ps v))
                in
                check "is_bivalent" bivalent (outcome (fun () -> Valency.is_bivalent t cfg ps));
                check_decides t Valency.zero;
                check_decides t Valency.one;
                check_decides t' Valency.one;
                check "is_bivalent after decides 1" bivalent
                  (outcome (fun () -> Valency.is_bivalent t' cfg ps));
                check_decides t' Valency.zero
              done)
            (Ts_checker.Explore.binary_inputs n))
        (List.filter (fun h -> h < 60) differential_horizons))
    (catalog_instances ())

(* The reference really is the P-wide engine: its racing-3 run does the
   work the solo witnesses save. *)
let test_reference_counts () =
  let t = Valency.create (Racing.make ~n:3) ~horizon:30 in
  ignore (Reference.Theorem.theorem1 t);
  let s = Valency.stats t in
  Alcotest.(check int) "reference searches" 23 s.Valency.searches;
  Alcotest.(check int) "reference nodes" 20_798 s.Valency.nodes_expanded

let suite =
  ( "core-engine",
    [
      Alcotest.test_case "Prop 2: initial valencies" `Quick test_prop2_initial_valencies;
      Alcotest.test_case "Prop 1(ii): supersets decide" `Quick test_prop1_superset_can_decide;
      Alcotest.test_case "decided configurations" `Quick test_prop1_decided_configuration;
      Alcotest.test_case "bivalence witnesses replay" `Quick test_witnesses_replay;
      Alcotest.test_case "valency memoization" `Quick test_memoization;
      Alcotest.test_case "lemma 1 arity check" `Quick test_lemma1_requires_three;
      Alcotest.test_case "lemma 1 on racing-3" `Slow test_lemma1_racing3;
      Alcotest.test_case "solo deciding executions" `Quick test_solo_deciding;
      Alcotest.test_case "split at uncovered write" `Quick test_split_at_uncovered_write;
      Alcotest.test_case "lemma 2 on initial configuration" `Quick test_lemma2_holds_on_initial;
      Alcotest.test_case "lemmas 3+4 via nice configuration" `Slow test_lemma3_via_nice_configuration;
      Alcotest.test_case "lemma 3 premises enforced" `Quick test_lemma3_premises;
      Alcotest.test_case "Theorem 1 on racing-2" `Quick test_theorem1_n2;
      Alcotest.test_case "Theorem 1 on racing-3" `Slow test_theorem1_n3;
      Alcotest.test_case "Theorem 1 on randomized racing-2" `Quick test_theorem1_randomized;
      Alcotest.test_case "Theorem 1 on randomized racing-3" `Slow test_theorem1_randomized_n3;
      Alcotest.test_case "horizon too small raises" `Quick test_theorem1_small_horizon_raises;
      Alcotest.test_case "iterative deepening succeeds" `Quick test_theorem1_escalate_deepens;
      Alcotest.test_case "iterative deepening bounded" `Quick test_theorem1_escalate_gives_up;
      Alcotest.test_case "budget guard" `Quick test_budget_guard;
      Alcotest.test_case "budget-capped theorem 1 is partial" `Quick
        test_theorem1_budget_partial;
      Alcotest.test_case "escalation matches unbounded run" `Quick
        test_escalation_completes_like_unbounded;
      Alcotest.test_case "escalation respects the budget" `Quick
        test_escalation_respects_budget;
      Alcotest.test_case "verify detects tampering" `Quick test_verify_detects_tampering;
      Alcotest.test_case "certificate pretty-printing" `Quick test_certificate_pp;
      Alcotest.test_case "bound curves" `Quick test_bounds;
      Alcotest.test_case "covering helpers" `Quick test_covering_helpers;
      Alcotest.test_case "Theorem 1 = P-wide reference (differential)" `Quick
        test_theorem1_matches_reference;
      Alcotest.test_case "yes/no answers = P-wide reference (differential)" `Quick
        test_boolean_answers_match_reference;
      Alcotest.test_case "reference does the P-wide work" `Quick test_reference_counts;
    ] )
