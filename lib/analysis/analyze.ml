open Ts_model
module Explore = Ts_checker.Explore
module Cert = Ts_cert.Cert

type analysis = {
  entry : Registry.entry;
  findings : Finding.t list;
  summary : Lint.summary;
  flagged : bool;
  ok : bool;
  property : Explore.result option;
}

type report = {
  analysis : analysis;
  verdict : Crosscheck.verdict;
  certificates : Certify.report;
  skipped : string option;
  engine_ns : int64;
  ok : bool;
}

type overall = {
  reports : report list;
  engine : Race.report;
  planted : Race.report;
  unregistered : string list;
  ok : bool;
}

let search ~domains ~k ~check_solo (e : Registry.entry) proto =
  Explore.check_set_agreement ~domains ~k proto ~inputs_list:e.Registry.inputs_list
    ~max_configs:e.Registry.max_configs ~max_depth:e.Registry.max_depth
    ~solo_budget:e.Registry.solo_budget ~check_solo

(* The property search as an analyzer: its verdict rendered as findings
   like any other pass. *)
let property_findings (e : Registry.entry) ~protocol (r : Explore.result) =
  let snk = Finding.Sink.create ~protocol ~pass:"property" in
  let report = Finding.Sink.report in
  (match r.Explore.verdict with
   | Ok () -> ()
   | Error v ->
     let code, msg =
       match v with
       | Explore.Agreement_violation { values; _ } ->
         ( "agreement-violation",
           Printf.sprintf "reachable configuration decides %d distinct values (k = %d)"
             (List.length values) e.Registry.k )
       | Explore.Validity_violation { value; _ } ->
         ( "validity-violation",
           Printf.sprintf "reachable configuration decides %s, which no process proposed"
             (Value.to_string value) )
       | Explore.Solo_stuck { pid; _ } ->
         ( "solo-nontermination",
           Printf.sprintf
             "p%d has a reachable configuration with no deciding solo run within %d steps"
             pid e.Registry.solo_budget )
       | Explore.Crash_stuck { crashed; _ } ->
         ( "crash-stuck",
           Printf.sprintf "crashing {%s} leaves the survivors unable to decide"
             (String.concat "," (List.map string_of_int crashed)) )
     in
     report snk ~code Finding.Error msg);
  (match r.Explore.stopped with
   | None -> ()
   | Some b ->
     report snk ~code:"budget-breached" Finding.Warning
       (Format.asprintf "property pass stopped early: %a" Ts_core.Budget.pp_breach b));
  Finding.Sink.findings snk

let analyze ?(domains = 1) (e : Registry.entry) =
  let (Protocol.Packed proto) = e.Registry.protocol in
  let lint_findings, summary =
    Lint.run e.Registry.claims proto ~inputs_list:e.Registry.inputs_list
      ~max_configs:e.Registry.max_configs ~max_depth:e.Registry.max_depth
  in
  let det_findings = Determinism.run proto ~inputs_list:e.Registry.inputs_list in
  let static_findings = lint_findings @ det_findings in
  let prop_findings, property =
    if Finding.errors static_findings <> [] then
      ( [ Finding.v ~protocol:proto.Protocol.name ~pass:"property"
            ~code:"property-pass-skipped" Finding.Info
            "skipped: earlier passes reported errors, stepping this protocol is unsafe" ],
        None )
    else
      let r = search ~domains ~k:e.Registry.k ~check_solo:true e proto in
      (property_findings e ~protocol:proto.Protocol.name r, Some r)
  in
  let findings = static_findings @ prop_findings in
  let flagged = Finding.errors findings <> [] in
  { entry = e; findings; summary; flagged; ok = flagged = not e.Registry.expect_clean;
    property }

let comparison_ok (e : Registry.entry) (v : Crosscheck.verdict) =
  match (e.Registry.xcheck, v) with
  | Registry.Expect_agree, Crosscheck.Agreed _
  | Registry.Expect_diverge, Crosscheck.Diverged _
  | Registry.Informational, _ -> true
  | (Registry.Expect_agree | Registry.Expect_diverge), _ -> false

let gate ?(domains = 1) (e : Registry.entry) =
  let (Protocol.Packed proto) = e.Registry.protocol in
  let t0 = Unix.gettimeofday () in
  let analysis = analyze ~domains e in
  let verdict, certs, skipped =
    match analysis.property with
    | None ->
      let codes =
        List.sort_uniq compare
          (List.map (fun f -> f.Finding.code) (Finding.errors analysis.findings))
      in
      let reason =
        Printf.sprintf "static errors (%s): stepping this protocol is unsafe"
          (String.concat ", " codes)
      in
      (Crosscheck.Unavailable reason, [], Some reason)
    | Some property ->
      let violation ?k what (r : Explore.result) =
        match r.Explore.verdict with
        | Error v -> [ (what v, Cert.of_violation ?k proto v) ]
        | Ok () -> []
      in
      (* a k-set protocol also violates plain consensus: a second witness *)
      let k1 =
        if e.Registry.k > 1 then
          violation ~k:1
            (fun v -> "k1-" ^ Explore.violation_kind v)
            (search ~domains ~k:1 ~check_solo:false e proto)
        else []
      in
      let resilience =
        match e.Registry.resilience with
        | None -> []
        | Some t ->
          violation
            (fun _ -> "resilience")
            (Explore.check_t_resilient ~domains ~t proto
               ~inputs_list:e.Registry.inputs_list
               ~max_configs:e.Registry.max_configs
               ~max_depth:e.Registry.max_depth
               ~solo_budget:e.Registry.solo_budget)
      in
      let c =
        Crosscheck.compare_engines
          ~budget:(fun () -> Ts_core.Budget.create ~deadline:15.0 ())
          proto
      in
      (* both engines' space-bound witnesses, as the comparison built and
         accepted them: second-engine certificates face the micro-checker
         and the mutant battery exactly like first-engine ones *)
      let space_bound =
        if e.Registry.xcheck <> Registry.Expect_agree then []
        else
          List.filter_map
            (fun (what, cert) -> Option.map (fun c -> (what, c)) cert)
            [ ("space_bound", c.Crosscheck.lemmas.Crosscheck.cert);
              ("space_bound-revisionist", c.Crosscheck.revisionist.Crosscheck.cert) ]
      in
      let certs =
        violation ~k:e.Registry.k Explore.violation_kind property
        @ k1 @ resilience @ space_bound
      in
      let skipped =
        if certs = [] then
          Some "no witness: no violation found, and no space-bound \
                certificate taken (only Expect_agree entries' are)"
        else None
      in
      (c.Crosscheck.verdict, certs, skipped)
  in
  let engine_ns = Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let certificates = Certify.check proto certs in
  let ok = analysis.ok && comparison_ok e verdict && Certify.ok certificates in
  { analysis; verdict; certificates; skipped; engine_ns; ok }

let gate_all ?(domains = 1) () =
  let reports = List.map (gate ~domains) (Registry.all ()) in
  let engine = Race.certify_engine ~domains:(max 2 domains) () in
  let planted = Race.planted () in
  (* Registry drift: every protocol the catalog ships must be registered,
     or the gate fails loudly — a new protocol cannot slip past the
     analyzers by simply never being registered.  (The converse holds by
     construction: registry entries are built from the catalog.) *)
  let registered = Registry.names () in
  let unregistered =
    List.filter (fun x -> not (List.mem x registered)) (Ts_protocols.Catalog.names ())
  in
  let exists p = List.exists p reports in
  let ok =
    List.for_all (fun (r : report) -> r.ok) reports
    && exists (fun r -> match r.verdict with Crosscheck.Agreed _ -> true | _ -> false)
    && exists (fun r -> r.certificates.Certify.witnesses > 0)
    && Race.race_free engine
    && (not (Race.race_free planted))
    && unregistered = []
  in
  { reports; engine; planted; unregistered; ok }

(* --- rendering --------------------------------------------------------- *)

let expect_name = function
  | Registry.Expect_agree -> "agree"
  | Registry.Expect_diverge -> "diverge"
  | Registry.Informational -> "informational"

let analysis_to_json (a : analysis) =
  Json.Obj
    [
      "protocol", Json.Str a.entry.Registry.cli_name;
      "expect_clean", Json.Bool a.entry.Registry.expect_clean;
      "flagged", Json.Bool a.flagged;
      "ok", Json.Bool a.ok;
      "summary", Lint.summary_to_json a.summary;
      "findings", Json.List (List.map Finding.to_json a.findings);
    ]

let report_to_json (r : report) =
  let e = r.analysis.entry in
  let c = r.certificates in
  Json.Obj
    [
      "protocol", Json.Str e.Registry.cli_name;
      "ok", Json.Bool r.ok;
      "analysis", analysis_to_json r.analysis;
      "crosscheck",
      Json.Obj
        [
          "expect", Json.Str (expect_name e.Registry.xcheck);
          "verdict", Crosscheck.verdict_to_json r.verdict;
          "ok", Json.Bool (comparison_ok e r.verdict);
        ];
      "certificates",
      Json.Obj
        [
          "witnesses", Json.Int c.Certify.witnesses;
          "validated", Json.Int c.Certify.validated;
          "tampers", Json.Int c.Certify.tampers;
          "tampers_rejected", Json.Int c.Certify.tampers_rejected;
          "skipped", (match r.skipped with None -> Json.Null | Some s -> Json.Str s);
          "errors", Json.List (List.map (fun s -> Json.Str s) c.Certify.errors);
          "checker_ns", Json.Int (Int64.to_int c.Certify.checker_ns);
        ];
      "engine_ns", Json.Int (Int64.to_int r.engine_ns);
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
    ]

let pp_certificates ppf (r : report) =
  let c = r.certificates in
  match r.skipped with
  | Some reason -> Fmt.pf ppf "skipped: %s" reason
  | None ->
    Fmt.pf ppf
      "%d witness%s validated %d/%d, tampers rejected %d/%d (engine %.1f ms, checker %.3f ms)%a"
      c.Certify.witnesses
      (if c.Certify.witnesses = 1 then "" else "es")
      c.Certify.validated c.Certify.witnesses c.Certify.tampers_rejected
      c.Certify.tampers
      (Int64.to_float r.engine_ns /. 1e6)
      (Int64.to_float c.Certify.checker_ns /. 1e6)
      (Fmt.list ~sep:Fmt.nop (fun ppf e -> Fmt.pf ppf "@,    ERROR: %s" e))
      c.Certify.errors

let pp_report ppf (r : report) =
  let a = r.analysis in
  Fmt.pf ppf
    "@[<v>%s: %s (expected %s)@,  footprint: %a%a@,  comparison (expect %s): %a@,  certificates: %a%a@]"
    a.entry.Registry.cli_name
    (if a.flagged then "FLAGGED" else "clean")
    (if a.entry.Registry.expect_clean then "clean" else "flagged")
    Lint.pp_summary a.summary
    (Fmt.list ~sep:Fmt.nop (fun ppf f -> Fmt.pf ppf "@,  %a" Finding.pp f))
    a.findings
    (expect_name a.entry.Registry.xcheck)
    Crosscheck.pp_verdict r.verdict pp_certificates r
    (fun ppf ok -> if not ok then Fmt.pf ppf "@,  GATE FAILURE") r.ok

let pp_overall ppf o =
  Fmt.pf ppf "@[<v>%a@,engine race check: %a@,planted race check: %a (%s)%a@,overall: %s@]"
    (Fmt.list ~sep:Fmt.cut pp_report) o.reports
    Race.pp_report o.engine Race.pp_report o.planted
    (if Race.race_free o.planted then "NOT caught — detector is blind"
     else "caught, as required")
    (fun ppf -> function
      | [] -> ()
      | l -> Fmt.pf ppf "@,UNREGISTERED protocols (in catalog, not in registry): %s"
               (String.concat ", " l))
    o.unregistered
    (if o.ok then "PASS" else "FAIL")
