(* The observability subsystem: span nesting and ordering, the
   allocation-free disabled path, exporter well-formedness, the
   engine log instants, and — the load-bearing guarantee — a
   differential proof that arming the profiler changes nothing about what
   the engine computes. *)

open Ts_core
module Obs = Ts_obs.Obs
module Export = Ts_obs.Export

(* --- a minimal validating JSON reader ---------------------------------
   The exporters emit JSON by hand; this strict RFC-8259-shaped validator
   is the independent check that the output really parses.  Values are
   not materialised — only structure is verified. *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let bad what = raise (Bad_json (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos >= n then bad "unexpected end" else s.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () <> c then bad (Printf.sprintf "expected '%c'" c) else advance () in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance ()
         | 'u' ->
           advance ();
           for _ = 1 to 4 do
             (match peek () with
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
              | _ -> bad "bad \\u escape")
           done
         | _ -> bad "bad escape");
        go ()
      | c when Char.code c < 0x20 -> bad "raw control char in string"
      | _ -> advance (); go ()
    in
    go ()
  in
  let number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    if not (num_char (peek ())) then bad "number";
    while !pos < n && num_char s.[!pos] do advance () done
  in
  let lit w = String.iter (fun c -> if peek () <> c then bad w else advance ()) w in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> bad "unexpected character"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' -> advance (); members ()
        | '}' -> advance ()
        | _ -> bad "expected ',' or '}'"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' -> advance (); elems ()
        | ']' -> advance ()
        | _ -> bad "expected ',' or ']'"
      in
      elems ()
  in
  value ();
  skip_ws ();
  if !pos <> n then bad "trailing garbage"

let check_valid_json what s =
  match validate_json s with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "%s: invalid JSON: %s" what m

let has_span name evs =
  List.exists
    (function Obs.Span_open { name = n'; _ } -> String.equal n' name | _ -> false)
    evs

(* --- spans ------------------------------------------------------------- *)

let span_nesting () =
  let evs =
    Obs.start_tracing ();
    let a = Obs.enter ~cat:"test" "outer" in
    let b = Obs.enter ~cat:"test" "inner" in
    Obs.set_int b "x" 7;
    Obs.close b;
    let c = Obs.enter ~cat:"test" "sibling" in
    Obs.close c;
    Obs.close a;
    Obs.stop_tracing ()
  in
  match evs with
  | [ Obs.Span_open { id = ida; parent = pa; name = na; t = ta; _ };
      Obs.Span_open { id = idb; parent = pb; name = nb; t = tb; _ };
      Obs.Span_close { id = cb; t = tcb; attrs };
      Obs.Span_open { id = idc; parent = pc; name = nc; _ };
      Obs.Span_close { id = cc; _ };
      Obs.Span_close { id = ca; t = tca; _ } ] ->
    Alcotest.(check string) "outer opens first" "outer" na;
    Alcotest.(check string) "inner opens second" "inner" nb;
    Alcotest.(check string) "sibling opens third" "sibling" nc;
    Alcotest.(check int) "outer is a root span" (-1) pa;
    Alcotest.(check bool) "inner's parent is outer" true (pb = ida);
    Alcotest.(check bool) "sibling's parent is outer again" true (pc = ida);
    Alcotest.(check bool) "closes match their opens" true
      (cb = idb && cc = idc && ca = ida);
    Alcotest.(check bool) "timestamps are monotone" true
      (ta <= tb && tb <= tcb && tcb <= tca);
    (match attrs with
     | [ ("x", Obs.Int 7) ] -> ()
     | _ -> Alcotest.fail "inner span lost its attribute")
  | _ -> Alcotest.failf "unexpected event shape (%d events)" (List.length evs)

let span_disabled_noop () =
  Alcotest.(check bool) "tracing starts disarmed" false (Obs.tracing ());
  let sp = Obs.enter ~cat:"test" "ghost" in
  Alcotest.(check bool) "disarmed enter returns the null span" true (sp == Obs.null_span);
  Obs.set_int sp "k" 1;
  Obs.close sp;
  Alcotest.(check int) "nothing was buffered" 0 (List.length (Obs.stop_tracing ()));
  (* the disabled path must stay off the minor heap: a hot loop of probes
     may not allocate (a handful of words for the Gc probe itself aside) *)
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    let sp = Obs.enter ~cat:"valency" "valency.search" in
    Obs.set_int sp "nodes" i;
    Obs.set_bool sp "decided" true;
    Obs.close sp;
    Obs.Metrics.incr "valency.searches";
    Obs.Metrics.gauge_max "valency.peak_frontier" i
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled path allocates nothing (%.0f words)" delta)
    true (delta < 256.0)

(* --- differential: tracing must not change what the engine computes ---- *)

let differential_theorem () =
  let run traced =
    let proto = Ts_protocols.Racing.make ~n:2 in
    let t = Valency.create proto ~horizon:40 in
    if traced then begin
      Obs.start_tracing ();
      Obs.Metrics.start ()
    end;
    let cert = Theorem.theorem1 t in
    let events = if traced then Obs.stop_tracing () else [] in
    if traced then ignore (Obs.Metrics.stop ());
    cert, Valency.stats t, events
  in
  let cert_u, stats_u, _ = run false in
  let cert_t, stats_t, events = run true in
  Alcotest.(check int) "searches identical" stats_u.Valency.searches stats_t.Valency.searches;
  Alcotest.(check int) "nodes expanded identical" stats_u.Valency.nodes_expanded
    stats_t.Valency.nodes_expanded;
  Alcotest.(check int) "memo hits identical" stats_u.Valency.memo_hits
    stats_t.Valency.memo_hits;
  Alcotest.(check int) "memo misses identical" stats_u.Valency.memo_misses
    stats_t.Valency.memo_misses;
  Alcotest.(check int) "peak frontier identical" stats_u.Valency.peak_frontier
    stats_t.Valency.peak_frontier;
  Alcotest.(check int) "witness schedule identical length"
    (List.length cert_u.Theorem.trace) (List.length cert_t.Theorem.trace);
  Alcotest.(check (list int)) "registers written identical"
    cert_u.Theorem.registers_written cert_t.Theorem.registers_written;
  Alcotest.(check bool) "and the traced run recorded its spans" true
    (has_span "theorem1" events)

let differential_explore () =
  let workload () =
    Ts_checker.Explore.check_consensus
      (Ts_protocols.Broken.last_write_wins ~n:2)
      ~inputs_list:(Ts_checker.Explore.binary_inputs 2)
      ~max_configs:10_000 ~max_depth:30 ~solo_budget:50 ~check_solo:false
  in
  let r_u = workload () in
  Obs.start_tracing ();
  Obs.Metrics.start ();
  let r_t = workload () in
  let events = Obs.stop_tracing () in
  let snap = Obs.Metrics.stop () in
  Alcotest.(check bool) "stats identical (incl. Ckey visit counts)" true
    (r_u.Ts_checker.Explore.stats = r_t.Ts_checker.Explore.stats);
  Alcotest.(check bool) "verdict identical" true
    (r_u.Ts_checker.Explore.verdict = r_t.Ts_checker.Explore.verdict);
  Alcotest.(check bool) "per-vector spans recorded" true
    (has_span "explore.vector" events);
  (* the metrics counter and the engine's own stats record agree on the
     number of distinct Ckeys inserted into the visited tables *)
  Alcotest.(check (option int)) "metrics mirror table_misses"
    (Some r_t.Ts_checker.Explore.stats.Ts_checker.Explore.table_misses)
    (List.assoc_opt "explore.table_misses" snap.Obs.Metrics.counters)

(* Regression: a protocol step that raises inside a valency search (the
   rogue writer writes a register it never declared) must still close the
   search span and account the search's work before the exception leaves
   the oracle.  The leaked span used to become the next span's parent, and
   [stats] reported no search at all. *)
let search_raise_closes_span () =
  let open Ts_model in
  let proto = Ts_protocols.Broken.rogue_writer ~n:2 in
  let t = Valency.create proto ~horizon:10 in
  let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1 |] in
  Obs.start_tracing ();
  let raised =
    match Valency.classify t i0 (Pset.all 2) with
    | _ -> None
    | exception e -> Some (Printexc.to_string e)
  in
  Obs.close (Obs.enter ~cat:"test" "after");
  let events = Obs.stop_tracing () in
  Alcotest.(check (option string)) "the protocol's exception propagates"
    (Some (Printexc.to_string (Invalid_argument "index out of bounds"))) raised;
  let opens = List.filter (function Obs.Span_open _ -> true | _ -> false) events in
  let closes = List.filter (function Obs.Span_close _ -> true | _ -> false) events in
  Alcotest.(check int) "every span closed" (List.length opens) (List.length closes);
  List.iter
    (function
      | Obs.Span_open { name = "after"; parent; _ } ->
        Alcotest.(check int) "the next span is a root span" (-1) parent
      | _ -> ())
    events;
  let s = Valency.stats t in
  Alcotest.(check int) "the search is counted" 1 s.Valency.searches;
  Alcotest.(check int) "and its dequeued node" 1 s.Valency.nodes_expanded

(* --- exporters --------------------------------------------------------- *)

let count_substring hay needle =
  let ln = String.length needle in
  let rec go i acc =
    if i + ln > String.length hay then acc
    else if String.sub hay i ln = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let chrome_trace_wellformed () =
  Obs.start_tracing ();
  let proto = Ts_protocols.Racing.make ~n:3 in
  let t = Valency.create proto ~horizon:60 in
  ignore (Theorem.theorem1 t);
  let events = Obs.stop_tracing () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " span present") true (has_span name events))
    [ "theorem1"; "lemma1"; "lemma2"; "lemma3"; "lemma4"; "valency.search" ];
  let js = Export.chrome_trace events in
  check_valid_json "chrome_trace" js;
  Alcotest.(check int) "every begin has an end"
    (count_substring js "\"ph\":\"B\"") (count_substring js "\"ph\":\"E\"")

let phases_aggregate () =
  let sp ~id ~name ~cat ~t0 ~t1 =
    [ Obs.Span_open { id; parent = -1; domain = 0; name; cat; t = t0 };
      Obs.Span_close { id; t = t1; attrs = [] } ]
  in
  let evs =
    sp ~id:1 ~name:"a" ~cat:"x" ~t0:0.0 ~t1:0.010
    @ sp ~id:2 ~name:"a" ~cat:"x" ~t0:0.020 ~t1:0.050
    @ sp ~id:3 ~name:"b" ~cat:"y" ~t0:0.0 ~t1:0.005
    @ [ Obs.Span_open { id = 4; parent = -1; domain = 0; name = "leak"; cat = "y"; t = 0.0 } ]
  in
  (match Export.phases evs with
   | [ a; b ] ->
     Alcotest.(check string) "largest total first" "a" a.Export.name;
     Alcotest.(check int) "a count" 2 a.Export.count;
     Alcotest.(check bool) "a total = 40ms" true (Float.abs (a.Export.total_ms -. 40.0) < 1e-6);
     Alcotest.(check bool) "a max = 30ms" true (Float.abs (a.Export.max_ms -. 30.0) < 1e-6);
     Alcotest.(check string) "b second" "b" b.Export.name;
     Alcotest.(check bool) "b total = 5ms" true (Float.abs (b.Export.total_ms -. 5.0) < 1e-6)
   | ps -> Alcotest.failf "expected 2 phases (unclosed span dropped), got %d" (List.length ps));
  let table = Export.phase_table evs in
  Alcotest.(check bool) "table lists both phases" true
    (count_substring table "a" > 0 && count_substring table "b" > 0)

let metrics_registry () =
  Obs.Metrics.start ();
  Obs.Metrics.incr "c";
  Obs.Metrics.incr ~by:4 "c";
  Obs.Metrics.gauge "g" 3;
  Obs.Metrics.gauge "g" 2;
  Obs.Metrics.gauge_max "hw" 5;
  Obs.Metrics.gauge_max "hw" 3;
  Obs.Metrics.observe_ms "h" 2.0;
  Obs.Metrics.observe_ms "h" 4.0;
  let s = Obs.Metrics.stop () in
  Alcotest.(check (list (pair string int))) "counters" [ "c", 5 ] s.Obs.Metrics.counters;
  Alcotest.(check (list (pair string int))) "gauges (sorted; gauge keeps last, \
                                             gauge_max keeps max)"
    [ "g", 2; "hw", 5 ] s.Obs.Metrics.gauges;
  (match s.Obs.Metrics.histograms with
   | [ ("h", h) ] ->
     Alcotest.(check int) "histo count" 2 h.Obs.Metrics.count;
     Alcotest.(check bool) "histo sum/min/max" true
       (h.Obs.Metrics.sum = 6.0 && h.Obs.Metrics.min = 2.0 && h.Obs.Metrics.max = 4.0)
   | _ -> Alcotest.fail "expected exactly one histogram");
  (* disarmed: recording is inert and the registry is clean *)
  Obs.Metrics.incr "c";
  let s2 = Obs.Metrics.snapshot () in
  Alcotest.(check (list (pair string int))) "stop cleared the registry" []
    s2.Obs.Metrics.counters

(* --- engine log lines on the span timeline ----------------------------- *)

(* The constructions' log lines are Obs instants, recorded only while
   tracing is armed: a traced Theorem 1 at n = 3 (where Lemmas 1, 3 and 4
   all run) leaves one per phase on the timeline, and an untraced run
   leaves none. *)
let engine_instants_recorded () =
  let run () =
    let t = Valency.create (Ts_protocols.Racing.make ~n:3) ~horizon:60 in
    ignore (Theorem.theorem1 t)
  in
  run ();
  Alcotest.(check int) "an untraced run buffers nothing" 0
    (List.length (Obs.stop_tracing ()));
  Obs.start_tracing ();
  run ();
  let instants =
    List.filter_map
      (function Obs.Instant { name; cat; _ } -> Some (cat, name) | _ -> None)
      (Obs.stop_tracing ())
  in
  let has cat prefix =
    List.exists (fun (c, name) -> c = cat && String.starts_with ~prefix name) instants
  in
  Alcotest.(check bool) "theorem1 start (log.info)" true
    (has "log.info" "theorem1: racing");
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " entry (log.debug)") true
        (has "log.debug" (phase ^ ": P=")))
    [ "lemma1"; "lemma3"; "lemma4" ]

let trace_interests_independent () =
  (* arming the race-detector interest must not disturb buffered spans,
     and draining spans must not drop buffered access events *)
  Obs.start_tracing ();
  let sp = Obs.enter ~cat:"test" "kept" in
  Obs.close sp;
  Obs.start_accesses ();
  Obs.access ~loc:"unification.probe" Obs.Write ~atomic:false;
  let span_evs = Obs.stop_tracing () in
  let access_evs = Obs.stop_accesses () in
  Alcotest.(check bool) "span survived the access drain" true (has_span "kept" span_evs);
  Alcotest.(check bool) "no access event leaked into the span drain" true
    (List.for_all (function Obs.Access _ -> false | _ -> true) span_evs);
  (match access_evs with
   | [ Obs.Access { loc = "unification.probe"; kind = Obs.Write; _ } ] -> ()
   | _ -> Alcotest.failf "access drain returned %d events" (List.length access_evs))

let suite =
  ( "obs",
    [
      Alcotest.test_case "span: nesting and ordering" `Quick span_nesting;
      Alcotest.test_case "span: disabled path is a no-op" `Quick span_disabled_noop;
      Alcotest.test_case "differential: theorem unchanged by tracing" `Quick
        differential_theorem;
      Alcotest.test_case "differential: explore unchanged by tracing" `Quick
        differential_explore;
      Alcotest.test_case "export: chrome trace well-formed" `Slow chrome_trace_wellformed;
      Alcotest.test_case "export: phase aggregation" `Quick phases_aggregate;
      Alcotest.test_case "metrics: registry semantics" `Quick metrics_registry;
      Alcotest.test_case "engine instants: traced runs record them" `Quick
        engine_instants_recorded;
      Alcotest.test_case "trace: interests drain independently" `Quick
        trace_interests_independent;
      Alcotest.test_case "span: a raising search closes and counts" `Quick
        search_raise_closes_span;
    ] )
