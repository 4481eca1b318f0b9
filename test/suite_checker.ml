(* The bounded model checker. *)
open Ts_model
open Ts_checker
open Ts_protocols

let test_binary_inputs () =
  Alcotest.(check int) "2^3 vectors" 8 (List.length (Explore.binary_inputs 3));
  let all = Explore.binary_inputs 2 in
  Alcotest.(check bool) "vectors distinct" true
    (List.length (List.sort_uniq compare (List.map Array.to_list all)) = 4);
  List.iter
    (fun v -> Array.iter (fun x -> Alcotest.(check bool) "binary" true (Value.to_int x < 2)) v)
    all

let test_stats_reported () =
  let r =
    Explore.check_consensus (Racing.make ~n:2)
      ~inputs_list:[ [| Value.int 0; Value.int 1 |] ]
      ~max_configs:2_000 ~max_depth:25 ~solo_budget:100 ~check_solo:false
  in
  Alcotest.(check bool) "explored some" true (r.Explore.stats.Explore.configs_explored > 100);
  Alcotest.(check bool) "truncated (racing is infinite-state)" true r.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "depth recorded" true (r.Explore.stats.Explore.deepest > 5)

let test_tiny_exhaustive_not_truncated () =
  (* the constant protocol has a tiny graph: exploration completes *)
  let r =
    Explore.check_consensus (Broken.oblivious_seven ~n:2)
      ~inputs_list:[ [| Value.int 7; Value.int 7 |] ]
      ~max_configs:1_000 ~max_depth:20 ~solo_budget:10 ~check_solo:true
  in
  (* inputs are 7 so deciding 7 is valid here; graph is finite *)
  Alcotest.(check bool) "verdict ok" true (r.Explore.verdict = Ok ());
  Alcotest.(check bool) "not truncated" false r.Explore.stats.Explore.truncated

let test_first_violation_stops_search () =
  let r =
    Explore.check_consensus (Broken.last_write_wins ~n:2)
      ~inputs_list:(Explore.binary_inputs 2) ~max_configs:100_000 ~max_depth:30
      ~solo_budget:50 ~check_solo:false
  in
  match r.Explore.verdict with
  | Error (Explore.Agreement_violation { values; _ }) ->
    Alcotest.(check int) "two values decided" 2 (List.length values)
  | _ -> Alcotest.fail "expected agreement violation"

let test_solo_check_flag () =
  (* with check_solo:false the insomniac passes; with true it is caught *)
  let run check_solo =
    (Explore.check_consensus (Broken.insomniac ~n:2)
       ~inputs_list:[ [| Value.int 0; Value.int 0 |] ]
       ~max_configs:100 ~max_depth:10 ~solo_budget:50 ~check_solo)
      .Explore.verdict
  in
  Alcotest.(check bool) "lenient without solo check" true (run false = Ok ());
  Alcotest.(check bool) "caught with solo check" true (run true <> Ok ())

let test_violation_pp () =
  let r =
    Explore.check_consensus (Broken.oblivious_seven ~n:2)
      ~inputs_list:[ [| Value.int 0; Value.int 0 |] ]
      ~max_configs:100 ~max_depth:10 ~solo_budget:10 ~check_solo:false
  in
  match r.Explore.verdict with
  | Error v ->
    let s = Format.asprintf "%a" Explore.pp_violation v in
    Alcotest.(check bool) "violation prints" true (String.length s > 10)
  | Ok () -> Alcotest.fail "expected validity violation"

(* Every reported violation must replay: re-applying its schedule from the
   initial configuration, at the probe budget the search ran with,
   reproduces the same property failure. *)
let violation_budget = 50

let violation_of proto ~check_solo =
  let n = proto.Protocol.num_processes in
  let r =
    Explore.check_consensus proto ~inputs_list:(Explore.binary_inputs n)
      ~max_configs:50_000 ~max_depth:30 ~solo_budget:violation_budget ~check_solo
  in
  match r.Explore.verdict with
  | Error v -> v
  | Ok () -> Alcotest.failf "%s: expected a violation" proto.Protocol.name

let test_replay_agreement () =
  let proto = Broken.last_write_wins ~n:2 in
  match violation_of proto ~check_solo:false with
  | Explore.Agreement_violation _ as v ->
    Alcotest.(check (result unit string)) "replays" (Ok ())
      (Explore.replay ~solo_budget:violation_budget proto v)
  | v -> Alcotest.failf "wrong kind: %a" Explore.pp_violation v

let test_replay_validity () =
  let proto = Broken.oblivious_seven ~n:2 in
  match violation_of proto ~check_solo:false with
  | Explore.Validity_violation _ as v ->
    Alcotest.(check (result unit string)) "replays" (Ok ())
      (Explore.replay ~solo_budget:violation_budget proto v)
  | v -> Alcotest.failf "wrong kind: %a" Explore.pp_violation v

let test_replay_solo_stuck () =
  let proto = Broken.insomniac ~n:2 in
  match violation_of proto ~check_solo:true with
  | Explore.Solo_stuck _ as v ->
    Alcotest.(check (result unit string)) "replays" (Ok ())
      (Explore.replay ~solo_budget:violation_budget proto v)
  | v -> Alcotest.failf "wrong kind: %a" Explore.pp_violation v

let test_replay_rejects_tampering () =
  let proto = Broken.oblivious_seven ~n:2 in
  match violation_of proto ~check_solo:false with
  | Explore.Validity_violation { inputs; schedule; value = _ } ->
    (* claim an input value was the invalid decision: replay must refuse *)
    let forged = Explore.Validity_violation { inputs; schedule; value = Value.int 0 } in
    Alcotest.(check bool) "forged witness rejected" true
      (Explore.replay ~solo_budget:violation_budget proto forged <> Ok ());
    (* claim a bogus solo-stuck on a protocol whose processes decide *)
    let bogus =
      Explore.Solo_stuck { inputs = [| Value.int 0; Value.int 0 |]; schedule = []; pid = 0 }
    in
    Alcotest.(check bool) "bogus stuck witness rejected" true
      (Explore.replay ~solo_budget:violation_budget proto bogus <> Ok ())
  | v -> Alcotest.failf "wrong kind: %a" Explore.pp_violation v

let test_budget_partial_result () =
  (* a tripped budget yields a structured partial result, not an exception *)
  let budget = Ts_core.Budget.create ~max_nodes:50 () in
  let r =
    Explore.check_consensus ~budget (Racing.make ~n:2)
      ~inputs_list:(Explore.binary_inputs 2) ~max_configs:1_000_000 ~max_depth:100
      ~solo_budget:50 ~check_solo:false
  in
  (match r.Explore.stopped with
   | Some (Ts_core.Budget.Node_cap _) -> ()
   | Some b -> Alcotest.failf "wrong breach: %a" Ts_core.Budget.pp_breach b
   | None -> Alcotest.fail "expected the node cap to trip");
  Alcotest.(check bool) "partial is marked truncated" true r.Explore.stats.Explore.truncated;
  Alcotest.(check bool) "verdict covers the explored part" true (r.Explore.verdict = Ok ());
  (* unlimited budget on the same call never sets [stopped] *)
  let r' =
    Explore.check_consensus (Racing.make ~n:2)
      ~inputs_list:(Explore.binary_inputs 2) ~max_configs:1_000 ~max_depth:20
      ~solo_budget:50 ~check_solo:false
  in
  Alcotest.(check bool) "no breach unlimited" true (r'.Explore.stopped = None)

(* --- differential: memo probes against plain per-probe BFS ------------ *)

(* The successors of [cfg] when only the members of [ps] step. *)
let member_successors proto cfg ps =
  List.concat_map
    (fun p ->
      match Config.poised proto cfg p with
      | None -> []
      | Some Action.Flip ->
        [ fst (Config.step proto cfg p ~coin:(Some true));
          fst (Config.step proto cfg p ~coin:(Some false)) ]
      | Some _ -> [ fst (Config.step proto cfg p ~coin:None) ])
    (Pset.to_list ps)

(* The probe as a fresh BFS per call, keyed by the whole configuration
   and sharing nothing: the distance (in member steps) from [cfg] to the
   nearest configuration where a member of [ps] has decided, if it is at
   most [budget], and the number of nodes dequeued. *)
let plain_probe proto pk cfg ps ~budget =
  let visited = Ckey.Tbl.create 64 in
  let q = Queue.create () in
  let push cfg depth =
    let key = Ckey.pack pk cfg in
    if not (Ckey.Tbl.mem visited key) then begin
      Ckey.Tbl.replace visited key ();
      Queue.add (cfg, depth) q
    end
  in
  push cfg 0;
  let rec go nodes =
    match Queue.take_opt q with
    | None -> (None, nodes)
    | Some (cfg, depth) ->
      if Pset.exists (fun p -> Config.has_decided cfg p <> None) ps then (Some depth, nodes + 1)
      else begin
        if depth < budget then
          List.iter (fun c -> push c (depth + 1)) (member_successors proto cfg ps);
        go (nodes + 1)
      end
  in
  go 0

(* The engine's per-vector search with [plain_probe] behind every probe:
   the same outer BFS, insertion order and stats.  [examine probe cfg
   schedule] returns the violation found at [cfg], if any; [probe] counts
   the probes issued and their dequeued nodes into [nodes]. *)
let plain_vector proto ~inputs ~max_configs ~max_depth ~solo_budget ~nodes ~examine =
  let pk = Ckey.packer proto in
  let everyone = Pset.all proto.Protocol.num_processes in
  let probes = ref 0 in
  let probe cfg ps =
    incr probes;
    let found, k = plain_probe proto pk cfg ps ~budget:solo_budget in
    nodes := !nodes + k;
    found <> None
  in
  let visited = Ckey.Tbl.create 64 in
  let q = Queue.create () in
  let cfg0 = Config.initial proto ~inputs in
  Queue.add (cfg0, [], 0) q;
  Ckey.Tbl.replace visited (Ckey.pack pk cfg0) ();
  let explored = ref 0 and trunc = ref false and deep = ref 0 in
  let hits = ref 0 and misses = ref 1 and peak = ref 1 in
  let rec go () =
    match Queue.take_opt q with
    | None -> Ok ()
    | Some (cfg, rev_sched, depth) -> (
      incr explored;
      deep := max !deep depth;
      match examine probe cfg (List.rev rev_sched) with
      | Some v -> Error v
      | None ->
        if depth >= max_depth || !explored >= max_configs then trunc := true
        else begin
          List.iter
            (fun (e, cfg') ->
              let key = Ckey.pack pk cfg' in
              if Ckey.Tbl.mem visited key then incr hits
              else begin
                incr misses;
                Ckey.Tbl.replace visited key ();
                Queue.add (cfg', e :: rev_sched, depth + 1) q
              end)
            (Ts_core.Valency.successors_within proto cfg everyone);
          peak := max !peak (Queue.length q)
        end;
        go ())
  in
  let verdict = go () in
  ( verdict,
    { Explore.configs_explored = !explored; truncated = !trunc; deepest = !deep;
      table_hits = !hits; table_misses = !misses; peak_frontier = !peak;
      solo_cache_hits = 0; solo_cache_misses = !probes } )

(* Input vectors in order, stopping after the first violation, with the
   engine's stats merge. *)
let plain_vectors run inputs_list =
  let merge (a : Explore.stats) (b : Explore.stats) =
    { Explore.configs_explored = a.Explore.configs_explored + b.Explore.configs_explored;
      truncated = a.Explore.truncated || b.Explore.truncated;
      deepest = max a.Explore.deepest b.Explore.deepest;
      table_hits = a.Explore.table_hits + b.Explore.table_hits;
      table_misses = a.Explore.table_misses + b.Explore.table_misses;
      peak_frontier = max a.Explore.peak_frontier b.Explore.peak_frontier;
      solo_cache_hits = 0;
      solo_cache_misses = a.Explore.solo_cache_misses + b.Explore.solo_cache_misses }
  in
  let zero =
    { Explore.configs_explored = 0; truncated = false; deepest = 0; table_hits = 0;
      table_misses = 0; peak_frontier = 0; solo_cache_hits = 0; solo_cache_misses = 0 }
  in
  let rec go acc = function
    | [] -> (Ok (), acc)
    | inputs :: rest -> (
      let verdict, s = run inputs in
      let acc = merge acc s in
      match verdict with Error _ -> (verdict, acc) | Ok () -> go acc rest)
  in
  go zero inputs_list

let plain_consensus_examine proto ~k ~inputs ~check_solo probe cfg schedule =
  let n = proto.Protocol.num_processes in
  let decided = Config.decided_values cfg in
  match List.find_opt (fun v -> not (Array.exists (Value.equal v) inputs)) decided with
  | Some value -> Some (Explore.Validity_violation { inputs; schedule; value })
  | None when List.length decided > k ->
    Some (Explore.Agreement_violation { inputs; schedule; values = decided })
  | None when check_solo ->
    List.find_opt
      (fun p -> Config.has_decided cfg p = None && not (probe cfg (Pset.singleton p)))
      (List.init n Fun.id)
    |> Option.map (fun pid -> Explore.Solo_stuck { inputs; schedule; pid })
  | None -> None

let plain_resilience_examine proto ~t ~inputs probe cfg schedule =
  let n = proto.Protocol.num_processes in
  let popcount m = List.length (List.filter (fun p -> m land (1 lsl p) <> 0) (List.init n Fun.id)) in
  let crash_sets =
    List.filter (fun m -> popcount m = t) (List.init (1 lsl n) Fun.id)
    |> List.map (fun m -> Pset.filter (fun p -> m land (1 lsl p) <> 0) (Pset.all n))
  in
  List.find_map
    (fun f ->
      let survivors = Pset.diff (Pset.all n) f in
      if probe cfg survivors then None
      else
        Some
          (Explore.Crash_stuck
             { inputs; schedule; crashed = Pset.to_list f; survivors = Pset.to_list survivors }))
    crash_sets

(* Every registry protocol, [check] and [resilient] at every [t], against
   the plain reference: same verdict (violation schedule included) and
   every stats field.  The registry holds the raising rogue writer, the
   insomniac ([Solo_stuck]) and [wait_for_all] ([Crash_stuck]); a protocol
   whose step raises must raise the same exception from both. *)
let test_memo_probes_differential () =
  let outcome f =
    match f () with r -> Ok r | exception e -> Error (Printexc.to_string e)
  in
  let same name engine plain =
    let got =
      outcome (fun () ->
          let r = engine () in
          Alcotest.(check bool) (name ^ ": no breach") true (r.Explore.stopped = None);
          (r.Explore.verdict, r.Explore.stats))
    in
    let expected = outcome plain in
    Alcotest.(check bool) (name ^ ": same verdict") true
      (Result.map fst got = Result.map fst expected);
    match got, expected with
    | Ok (_, s), Ok (_, s') ->
      Alcotest.(check string) (name ^ ": same stats") (Fmt.str "%a" Explore.pp_stats s')
        (Fmt.str "%a" Explore.pp_stats s);
      Alcotest.(check bool) (name ^ ": every stats field") true (s = s')
    | _ -> ()
  in
  List.iter
    (fun (e : Ts_analysis.Registry.entry) ->
      let (Protocol.Packed proto) = e.Ts_analysis.Registry.protocol in
      let n = proto.Protocol.num_processes in
      let inputs_list = List.filteri (fun i _ -> i < 4) e.Ts_analysis.Registry.inputs_list in
      let max_configs = min e.Ts_analysis.Registry.max_configs 300 in
      let max_depth = e.Ts_analysis.Registry.max_depth in
      let solo_budget = e.Ts_analysis.Registry.solo_budget in
      let k = e.Ts_analysis.Registry.k in
      let name = e.Ts_analysis.Registry.cli_name in
      let nodes = ref 0 in
      same (name ^ " check")
        (fun () ->
          Explore.check_set_agreement ~k proto ~inputs_list ~max_configs ~max_depth
            ~solo_budget ~check_solo:true)
        (fun () ->
          plain_vectors
            (fun inputs ->
              plain_vector proto ~inputs ~max_configs ~max_depth ~solo_budget ~nodes
                ~examine:(plain_consensus_examine proto ~k ~inputs ~check_solo:true))
            inputs_list);
      for t = 0 to n - 1 do
        same (Printf.sprintf "%s resilient t=%d" name t)
          (fun () ->
            Explore.check_t_resilient ~t proto ~inputs_list ~max_configs ~max_depth
              ~solo_budget)
          (fun () ->
            plain_vectors
              (fun inputs ->
                plain_vector proto ~inputs ~max_configs ~max_depth ~solo_budget ~nodes
                  ~examine:(plain_resilience_examine proto ~t ~inputs))
              inputs_list)
      done)
    (Ts_analysis.Registry.all ())

(* The profiler's probe counters for one racing-3 check (the served
   [check] shape at max_configs 400), against the plain probes' count. *)
let test_probe_node_counts () =
  let proto = Racing.make ~n:3 in
  let inputs_list = Explore.binary_inputs 3 in
  let max_configs = 400 and max_depth = 40 and solo_budget = 300 in
  Ts_obs.Obs.Metrics.start ();
  let r =
    Explore.check_consensus proto ~inputs_list ~max_configs ~max_depth ~solo_budget
      ~check_solo:true
  in
  let snap = Ts_obs.Obs.Metrics.stop () in
  let counter name = List.assoc_opt name snap.Ts_obs.Obs.Metrics.counters in
  let plain_nodes = ref 0 in
  ignore
    (plain_vectors
       (fun inputs ->
         plain_vector proto ~inputs ~max_configs ~max_depth ~solo_budget ~nodes:plain_nodes
           ~examine:(plain_consensus_examine proto ~k:1 ~inputs ~check_solo:true))
       inputs_list);
  Alcotest.(check (list (pair string int))) "probe work"
    [ ("probes on the wire", 12_690); ("probes counted", 12_690); ("plain nodes", 302_008);
      ("memo nodes", 14_954); ("memo hits", 12_602) ]
    [ ("probes on the wire", r.Explore.stats.Explore.solo_cache_misses);
      ("probes counted", Option.value ~default:(-1) (counter "explore.solo_cache_misses"));
      ("plain nodes", !plain_nodes);
      ("memo nodes", Option.value ~default:(-1) (counter "explore.probe_nodes"));
      ("memo hits", Option.value ~default:(-1) (counter "explore.probe_memo_hits")) ]

(* Random reachable configurations, groups and budgets, one probe context
   per case so answers lean on earlier probes' bounds.  Budgets straddle
   the decision distance: below it a probe fails and records [lo]; at or
   above it succeeds and records [hi]. *)
let prop_memo_probe_matches_plain name proto =
  let n = proto.Protocol.num_processes in
  QCheck.Test.make ~name:("explore: memo probe = plain BFS on " ^ name) ~count:20
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let pk = Ckey.packer proto in
      let pr = Explore.probes proto in
      let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
      let rec walk cfg steps ok =
        let alive = List.filter (fun p -> Config.has_decided cfg p = None) (List.init n Fun.id) in
        if steps = 0 || alive = [] then ok
        else
          let mask = 1 + Rng.int rng ((1 lsl n) - 1) in
          let ps = Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) in
          let distance = fst (plain_probe proto pk cfg ps ~budget:25) in
          let budget =
            match distance with
            | Some d -> max 0 (d - 3 + Rng.int rng 5)
            | None -> Rng.int rng 12
          in
          let expected = fst (plain_probe proto pk cfg ps ~budget) <> None in
          let ok = ok && Explore.group_can_decide pr cfg ps ~budget = expected in
          let p = List.nth alive (Rng.int rng (List.length alive)) in
          let coin =
            match Config.poised proto cfg p with
            | Some Action.Flip -> Some (Rng.bool rng)
            | _ -> None
          in
          walk (fst (Config.step proto cfg p ~coin)) (steps - 1) ok
      in
      walk (Config.initial proto ~inputs) 20 true)

let qcheck_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest ~verbose:false t)
    [
      prop_memo_probe_matches_plain "racing-3" (Racing.make ~n:3);
      prop_memo_probe_matches_plain "racing-rand-2" (Racing.make_randomized ~n:2);
      prop_memo_probe_matches_plain "kset-3-2" (Kset.make ~n:3 ~k:2);
    ]

(* The input vectors and crash masks are built whole before any budget
   is charged, so both entry points refuse an [n] above the limit at
   once, with a message that names it. *)
let test_large_n_refused () =
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: n = 17 was accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ " names the limit: " ^ msg) true
        (List.mem (string_of_int Explore.max_n) (String.split_on_char ' ' msg))
  in
  Alcotest.(check int) "the limit" 16 Explore.max_n;
  refused "binary_inputs" (fun () -> ignore (Explore.binary_inputs 17));
  refused "check_t_resilient" (fun () ->
      ignore
        (Explore.check_t_resilient ~t:1 (Racing.make ~n:17)
           ~inputs_list:[ Array.make 17 (Value.int 0) ]
           ~max_configs:10 ~max_depth:2 ~solo_budget:5))

let suite =
  ( "checker",
    [
      Alcotest.test_case "binary input vectors" `Quick test_binary_inputs;
      Alcotest.test_case "stats reported" `Quick test_stats_reported;
      Alcotest.test_case "finite graphs fully explored" `Quick test_tiny_exhaustive_not_truncated;
      Alcotest.test_case "first violation stops search" `Quick test_first_violation_stops_search;
      Alcotest.test_case "solo check flag" `Quick test_solo_check_flag;
      Alcotest.test_case "violation pretty-printing" `Quick test_violation_pp;
      Alcotest.test_case "replay: agreement witness" `Quick test_replay_agreement;
      Alcotest.test_case "replay: validity witness" `Quick test_replay_validity;
      Alcotest.test_case "replay: solo-stuck witness" `Quick test_replay_solo_stuck;
      Alcotest.test_case "replay rejects tampered witnesses" `Quick
        test_replay_rejects_tampering;
      Alcotest.test_case "budget yields partial results" `Quick test_budget_partial_result;
      Alcotest.test_case "memo probes = plain per-probe BFS (registry)" `Quick
        test_memo_probes_differential;
      Alcotest.test_case "probe node counts (racing-3 check)" `Quick test_probe_node_counts;
    ]
    @ qcheck_cases
    @ [ Alcotest.test_case "check/resilient refuse n above the limit" `Quick test_large_n_refused ] )
