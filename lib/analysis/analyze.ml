open Ts_model

type protocol_report = {
  entry : Registry.entry;
  findings : Finding.t list;
  summary : Lint.summary;
  flagged : bool;
  ok : bool;
}

type overall = {
  reports : protocol_report list;
  engine : Race.report;
  planted : Race.report;
  unregistered : string list;
  uncataloged : string list;
  ok : bool;
}

(* The property pass: bounded model checking as an analyzer, its verdict
   rendered as findings like any other pass. *)
let property_findings ?(domains = 1) (e : Registry.entry) =
  let (Protocol.Packed proto) = e.protocol in
  let snk = Finding.Sink.create ~protocol:proto.Protocol.name ~pass:"property" in
  let report = Finding.Sink.report in
  let r =
    Ts_checker.Explore.check_set_agreement ~domains ~k:e.k proto
      ~inputs_list:e.inputs_list ~max_configs:e.max_configs
      ~max_depth:e.max_depth ~solo_budget:e.solo_budget ~check_solo:true
  in
  (match r.Ts_checker.Explore.verdict with
   | Ok () -> ()
   | Error v ->
     let code, msg =
       match v with
       | Ts_checker.Explore.Agreement_violation { values; _ } ->
         ( "agreement-violation",
           Printf.sprintf "reachable configuration decides %d distinct values (k = %d)"
             (List.length values) e.k )
       | Ts_checker.Explore.Validity_violation { value; _ } ->
         ( "validity-violation",
           Printf.sprintf "reachable configuration decides %s, which no process proposed"
             (Value.to_string value) )
       | Ts_checker.Explore.Solo_stuck { pid; _ } ->
         ( "solo-nontermination",
           Printf.sprintf
             "p%d has a reachable configuration with no deciding solo run within %d steps"
             pid e.solo_budget )
       | Ts_checker.Explore.Crash_stuck { crashed; _ } ->
         ( "crash-stuck",
           Printf.sprintf "crashing {%s} leaves the survivors unable to decide"
             (String.concat "," (List.map string_of_int crashed)) )
     in
     report snk ~code Finding.Error msg);
  (match r.Ts_checker.Explore.stopped with
   | None -> ()
   | Some b ->
     report snk ~code:"budget-breached" Finding.Warning
       (Format.asprintf "property pass stopped early: %a" Ts_core.Budget.pp_breach b));
  Finding.Sink.findings snk

let analyze ?(domains = 1) (e : Registry.entry) =
  let (Protocol.Packed proto) = e.protocol in
  let lint_findings, summary =
    Lint.run e.claims proto ~inputs_list:e.inputs_list
      ~max_configs:e.max_configs ~max_depth:e.max_depth
  in
  let det_findings = Determinism.run proto ~inputs_list:e.inputs_list in
  let static_errors = Finding.errors (lint_findings @ det_findings) <> [] in
  let prop_findings =
    if static_errors then
      [ Finding.v ~protocol:proto.Protocol.name ~pass:"property"
          ~code:"property-pass-skipped" Finding.Info
          "skipped: earlier passes reported errors, stepping this protocol is unsafe" ]
    else property_findings ~domains e
  in
  let findings = lint_findings @ det_findings @ prop_findings in
  let flagged = Finding.errors findings <> [] in
  { entry = e; findings; summary; flagged; ok = flagged = not e.expect_clean }

let analyze_all ?(domains = 1) () =
  let reports = List.map (analyze ~domains) (Registry.all ()) in
  let engine = Race.certify_engine ~domains:(max 2 domains) () in
  let planted = Race.planted () in
  (* Registry drift: every protocol the CLI catalog ships must be
     registered here (and vice versa), or the gate fails loudly — a new
     protocol cannot slip past the analyzers by simply never being
     registered. *)
  let registered = Registry.names () in
  let cataloged = Ts_protocols.Catalog.names () in
  let missing_from xs ys = List.filter (fun x -> not (List.mem x ys)) xs in
  let unregistered = missing_from cataloged registered in
  let uncataloged = missing_from registered cataloged in
  let ok =
    List.for_all (fun (r : protocol_report) -> r.ok) reports
    && Race.race_free engine
    && not (Race.race_free planted)
    && unregistered = [] && uncataloged = []
  in
  { reports; engine; planted; unregistered; uncataloged; ok }

let report_to_json r =
  Json.Obj
    [
      "protocol", Json.Str r.entry.Registry.cli_name;
      "expect_clean", Json.Bool r.entry.Registry.expect_clean;
      "flagged", Json.Bool r.flagged;
      "ok", Json.Bool r.ok;
      "summary", Lint.summary_to_json r.summary;
      "findings", Json.List (List.map Finding.to_json r.findings);
    ]

let overall_to_json o =
  Json.Obj
    [
      "ok", Json.Bool o.ok;
      "protocols", Json.List (List.map report_to_json o.reports);
      "engine_race_check", Race.to_json o.engine;
      "planted_race_check", Race.to_json o.planted;
      "planted_race_caught", Json.Bool (not (Race.race_free o.planted));
      "unregistered_protocols",
      Json.List (List.map (fun s -> Json.Str s) o.unregistered);
      "uncataloged_protocols",
      Json.List (List.map (fun s -> Json.Str s) o.uncataloged);
    ]

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s: %s (expected %s)@,  footprint: %a%a@]"
    r.entry.Registry.cli_name
    (if r.flagged then "FLAGGED" else "clean")
    (if r.entry.Registry.expect_clean then "clean" else "flagged")
    Lint.pp_summary r.summary
    (Fmt.list ~sep:Fmt.nop (fun ppf f -> Fmt.pf ppf "@,  %a" Finding.pp f))
    r.findings

let pp_overall ppf o =
  Fmt.pf ppf "@[<v>%a@,engine race check: %a@,planted race check: %a (%s)%a%a@,overall: %s@]"
    (Fmt.list ~sep:Fmt.cut pp_report) o.reports
    Race.pp_report o.engine Race.pp_report o.planted
    (if Race.race_free o.planted then "NOT caught — detector is blind"
     else "caught, as required")
    (fun ppf -> function
      | [] -> ()
      | l -> Fmt.pf ppf "@,UNREGISTERED protocols (in catalog, not in registry): %s"
               (String.concat ", " l))
    o.unregistered
    (fun ppf -> function
      | [] -> ()
      | l -> Fmt.pf ppf "@,UNCATALOGED protocols (registered, not in catalog): %s"
               (String.concat ", " l))
    o.uncataloged
    (if o.ok then "PASS" else "FAIL")
