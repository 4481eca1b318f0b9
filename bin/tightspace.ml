(* tightspace: command-line front end to the reproduction.

   witness (Lemmas engine), check, resilient and trace are a thin front
   door over the serve daemon's own handler: each builds a
   [Ts_service.Request.t] from its flags (whose defaults are
   [Request.defaults]), checks it with the decoder's rule
   ([Request.validate]), answers it in-process with [Dispatch.run] and
   only renders the answer: text, or under --json the served result
   document.  A refusal carries the served error code
   ([Dispatch.refusal]), and [refuse] maps each code to an exit code.
   The one exception is witness --engine revisionist|both, which the
   daemon does not serve: it calls its engines directly.  The other
   subcommands (dot, analyze, certify, serve, query, store, chaos) are
   listed with their purpose by [tightspace --help]. *)
open Cmdliner
open Ts_model
open Ts_core
open Ts_protocols
module Request = Ts_service.Request
module Dispatch = Ts_service.Dispatch
module Explore = Ts_checker.Explore

let defaults = Request.defaults

let n_arg =
  Arg.(value & opt int defaults.Request.n
       & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int defaults.Request.seed
       & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* Name resolution is delegated to the catalog so the CLI, the analysis
   registry and the serve daemon agree on what every name means. *)
let protocol_arg =
  Arg.(value & opt string defaults.Request.protocol
       & info [ "protocol" ] ~docv:"NAME"
           ~doc:("Protocol: " ^ Catalog.names_doc () ^ "."))

(* Resource-guard flags shared by the search subcommands. *)
let deadline_arg =
  Arg.(value & opt (some float) defaults.Request.deadline
       & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Wall-clock budget; a tripped budget yields a partial result.")

let max_nodes_arg =
  Arg.(value & opt (some int) defaults.Request.max_nodes
       & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Search-node budget across the whole invocation.")

let budget_of (r : Request.t) =
  match (r.Request.deadline, r.Request.max_nodes) with
  | None, None -> Budget.unlimited
  | deadline, max_nodes -> Budget.create ?deadline ?max_nodes ()

module Obs = Ts_obs.Obs
module Obs_export = Ts_obs.Export

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Arm the engine's metrics registry for the run and print the \
                 counter/gauge/histogram summary afterwards.")

(* Run [f] with metrics armed when requested; the summary prints even if
   [f] raises (partial runs are exactly when the counters are interesting). *)
let with_metrics enabled f =
  if not enabled then f ()
  else begin
    Obs.Metrics.start ();
    Fun.protect f ~finally:(fun () ->
        Format.printf "@.engine metrics:@.%a@." Obs.Metrics.pp_snapshot
          (Obs.Metrics.stop ()))
  end

let json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit machine-readable JSON instead of human-readable text. \
                 For witness, check and resilient it is the serve daemon's \
                 result document for the same query (certificate included), \
                 or its error document for a refusal.")

let pr_json doc = print_endline (Ts_analysis.Json.to_string_pretty doc)

(* A refusal, by its served error code: under --json the served error
   document on stdout, else a message on stderr.  This is the one map
   from a code to an exit code: invalid-argument 2, out-of-budget 3,
   internal 125 and every other code 1. *)
let refuse ~json (code, msg) =
  let exit, text =
    match code with
    | "invalid-argument" ->
      ( 2,
        "tightspace: invalid arguments: " ^ msg
        ^ "\nhint: check -n, -t and the chosen --protocol fit together." )
    | "out-of-budget" ->
      ( 3,
        "tightspace: resource budget tripped (" ^ msg
        ^ ").\nhint: raise --deadline / --max-nodes and rerun." )
    | "internal" -> (125, "tightspace: internal error, uncaught exception: " ^ msg)
    | "construction-failed" -> (1, "construction failed: " ^ msg)
    | _ -> (1, msg)
  in
  if json then pr_json (Ts_service.Response.error ~id:None ~code msg)
  else prerr_endline text;
  exit

(* The daemon's handler, in-process: the request is checked with the
   decoder's rule and answered by [Dispatch.run].  A refusal carries the
   code and message the daemon would serve. *)
let ask ?domains req =
  match Request.validate req with
  | Error msg -> Error ("invalid-argument", msg)
  | Ok req -> (
    match Dispatch.run ?domains ~budget:(budget_of req) req with
    | answer -> Ok answer
    | exception exn -> Error (Dispatch.refusal exn))

(* Long-running subcommands install this so an interrupt still yields the
   partial observability output the run accumulated.  [Fun.protect]
   finalizers do not run through [exit], so the flush lives in the handler
   itself. *)
let install_flush_handler ?flush () =
  Ts_service.Signals.install ~exit_after:true ~on_signal:(fun signo ->
      Format.eprintf "@.interrupted (%s); flushing partial output.@."
        (if signo = Sys.sigint then "SIGINT" else "SIGTERM");
      (match flush with Some f -> f () | None -> ());
      if Obs.Metrics.armed () then
        Format.eprintf "engine metrics (partial):@.%a@." Obs.Metrics.pp_snapshot
          (Obs.Metrics.snapshot ()))

(* Certificate emission for witness/check/resilient.  The artifact is
   self-checked through the independent micro-checker before it is
   written: shipping a certificate our own checker rejects would be a
   bug, not an answer.  Status goes to stderr so --json stdout stays a
   single document. *)
let write_certificate ~file cert =
  let s = Ts_cert.Cert.to_string cert in
  match Ts_cert.Cert.microcheck_string s with
  | Error e ->
    Format.eprintf "certificate self-check FAILED (nothing written): %s@." e;
    false
  | Ok () ->
    let oc = open_out_bin file in
    output_string oc s;
    close_out oc;
    Format.eprintf "certificate written to %s (%d bytes)@." file
      (String.length s);
    true

let certificate_arg =
  Arg.(value & opt (some string) None
       & info [ "certificate" ] ~docv:"FILE"
           ~doc:"Write a self-contained witness certificate (canonical JSON, \
                 independently checkable with $(b,tightspace certify)) to \
                 FILE; with $(b,--json) the document embeds it too.  Witness \
                 needs a complete construction; check and resilient need a \
                 violation.")

(* A stopped construction of either engine: the stop, the engine's
   progress and the flag that would carry it further.  [used] is the
   horizon (or private-run allowance) the stop came from. *)
let print_partial ~used pp_progress stop progress =
  Format.printf "partial result: %a@.progress: %a@." Theorem.pp_stop stop
    pp_progress progress;
  match stop with
  | Theorem.Wall _ ->
    Format.printf
      "hint: raise --horizon beyond %d (or drop it to escalate automatically).@."
      used
  | Theorem.Out_of_budget _ ->
    Format.printf "hint: raise --deadline / --max-nodes and rerun.@."

(* The text form of an answer. *)
let print_answer ~diagram = function
  | Dispatch.Witness { horizon_used; cert; replay; _ } -> (
    Format.printf "%a@.(oracle horizon: %d)@." Theorem.pp_certificate cert
      horizon_used;
    if diagram then
      Format.printf "@.%s@."
        (Diagram.render ~n:cert.Theorem.n cert.Theorem.trace);
    match replay with
    | Ok () -> Format.printf "independent replay: verified.@."
    | Error e -> Format.printf "replay FAILED: %s@." e)
  | Dispatch.Witness_partial { horizon_used; stop; progress } ->
    print_partial ~used:horizon_used Theorem.pp_progress stop progress
  | Dispatch.Explored { result = r; replay; _ } -> (
    (match replay with
     | Some (Ok ()) -> Format.printf "witness replayed independently: confirmed.@."
     | Some (Error e) -> Format.printf "witness replay FAILED: %s@." e
     | None -> ());
    (match r.Explore.stopped with
     | Some b ->
       Format.printf
         "budget tripped (%a): verdict below is partial; raise --deadline / --max-nodes.@."
         Budget.pp_breach b
     | None -> ());
    match r.Explore.verdict with
    | Ok () ->
      let s = r.Explore.stats in
      Format.printf "clean: %d configurations explored (truncated: %b, deepest: %d)@."
        s.Explore.configs_explored s.Explore.truncated s.Explore.deepest
    | Error v -> Format.printf "VIOLATION: %a@." Explore.pp_violation v)
  | (Dispatch.Classified _ | Dispatch.Analyzed _) as a ->
    pr_json (Dispatch.answer_to_json a)

(* Exit codes (documented in the README table): 0 a verified witness or
   a clean check, 1 a violation or a failed replay, 2 a partial result
   (a budget or horizon stopped the search with no violation found: the
   verdict is evidence, not a proof, so scripts must be able to tell). *)
let answer_exit = function
  | Dispatch.Witness { replay = Ok (); _ } -> 0
  | Dispatch.Witness _ -> 1
  | Dispatch.Witness_partial _ -> 2
  | Dispatch.Explored { result = { Explore.verdict = Error _; _ }; _ } -> 1
  | Dispatch.Explored { result = { Explore.stopped = Some _; _ }; _ } -> 2
  | Dispatch.Explored _ | Dispatch.Classified _ | Dispatch.Analyzed _ -> 0

let save_certificate ~file = function
  | Dispatch.Witness { certificate = Some c; _ }
  | Dispatch.Explored { certificate = Some c; _ } ->
    write_certificate ~file c
  | Dispatch.Witness_partial _ ->
    Format.eprintf "no certificate: the construction was partial.@.";
    true
  | _ ->
    Format.eprintf "no certificate: no violation was found.@.";
    true

(* witness (Lemmas engine), check and resilient: one request, answered by
   the daemon's handler and rendered.  --certificate FILE asks for the
   certificate in the answer and writes it to FILE. *)
let answer_request ?domains ?(diagram = false) ~json ~certificate req =
  match ask ?domains { req with Request.certificate = certificate <> None } with
  | Error refusal -> refuse ~json refusal
  | Ok a ->
    if json then pr_json (Dispatch.answer_to_json a) else print_answer ~diagram a;
    let cert_ok =
      match certificate with None -> true | Some file -> save_certificate ~file a
    in
    if cert_ok then answer_exit a else 1

(* The two lower-bound engines, selectable on [witness].  [lemmas] is the
   Lemma 1-4 / Theorem-1 construction, [revisionist] the
   revisionist-simulation engine, [both] runs the two-engine comparison
   ([Ts_analysis.Crosscheck]). *)
module Rev = Ts_revisionist.Revisionist

let engine_conv =
  Arg.enum [ ("lemmas", `Lemmas); ("revisionist", `Revisionist); ("both", `Both) ]

let engine_arg =
  Arg.(value & opt engine_conv `Lemmas
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Lower-bound engine: $(b,lemmas) (the Lemma 1-4 \
                 construction), $(b,revisionist) (revisionist \
                 simulations), or $(b,both) (compare the two, as \
                 $(b,tightspace analyze) does for every registry entry: \
                 exit 0 when they agree on the bound, 1 when they \
                 diverge, 2 when there is nothing to compare).")

let witness_revisionist ~json ~certificate ~budget ~horizon proto =
  match Rev.witness ~budget ?max_solo:horizon proto with
  | Rev.Complete cert, used ->
    let verified = Rev.verify cert proto in
    if json then
      pr_json
        (Ts_service.Response.revisionist_to_json ~max_solo_used:used ~verified
           cert)
    else begin
      Format.printf "%a@.(private-run allowance: %d)@." Rev.pp_certificate cert
        used;
      match verified with
      | Ok () -> Format.printf "independent replay: verified.@."
      | Error e -> Format.printf "replay FAILED: %s@." e
    end;
    let cert_ok =
      match certificate with
      | None -> true
      | Some file ->
        write_certificate ~file (Ts_cert.Cert.of_revisionist proto cert)
    in
    (match verified with Ok () when cert_ok -> 0 | _ -> 1)
  | Rev.Partial (stop, progress), used ->
    if json then
      pr_json
        (Ts_service.Response.revisionist_partial_to_json ~max_solo_used:used
           stop progress)
    else print_partial ~used Rev.pp_progress stop progress;
    if certificate <> None then
      Format.eprintf "no certificate: the construction was partial.@.";
    2

(* The two-engine comparison's exit code for [witness --engine both]:
   0 agreed, 1 diverged, 2 nothing to compare. *)
let verdict_exit = function
  | Ts_analysis.Crosscheck.Agreed _ -> 0
  | Ts_analysis.Crosscheck.Diverged _ -> 1
  | Ts_analysis.Crosscheck.Unavailable _ -> 2

(* --engine both: render the two-engine comparison.  The JSON document
   keeps each engine's own answer and adds the comparison's verdict. *)
let print_comparison ~json ~budget ~horizon proto =
  let module X = Ts_analysis.Crosscheck in
  let module J = Ts_analysis.Json in
  let module R = Ts_service.Response in
  let c = X.compare_engines ~budget:(fun () -> budget) ?horizon proto in
  let lem = c.X.lemmas and rev = c.X.revisionist in
  let accepted (side : _ X.side) =
    match side.X.result with X.Completed (_, e :: _) -> Error e | _ -> Ok ()
  in
  if json then begin
    let fields =
      match (lem.X.outcome, rev.X.outcome) with
      | Theorem.Complete lc, Rev.Complete rc ->
        [
          ("status", J.Str "complete");
          ("lemmas",
           R.witness_to_json ~horizon_used:lem.X.used ~verified:(accepted lem)
             lc);
          ("revisionist",
           R.revisionist_to_json ~max_solo_used:rev.X.used
             ~verified:(accepted rev) rc);
          ("agreement",
           match c.X.verdict with
           | X.Agreed bound ->
             J.Obj [ ("agreed", J.Bool true); ("bound", J.Int bound) ]
           | X.Diverged reason | X.Unavailable reason ->
             J.Obj [ ("agreed", J.Bool false); ("reason", J.Str reason) ]);
        ]
      | lo, ro ->
        [
          ("status", J.Str "partial");
          ("lemmas",
           match lo with
           | Theorem.Complete _ -> J.Str "complete"
           | Theorem.Partial (stop, p) ->
             R.witness_partial_to_json ~horizon_used:lem.X.used stop p);
          ("revisionist",
           match ro with
           | Rev.Complete _ -> J.Str "complete"
           | Rev.Partial (stop, p) ->
             R.revisionist_partial_to_json ~max_solo_used:rev.X.used stop p);
        ]
    in
    pr_json (J.Obj (fields @ [ ("verdict", X.verdict_to_json c.X.verdict) ]))
  end
  else begin
    (match (lem.X.outcome, rev.X.outcome) with
     | Theorem.Complete lc, Rev.Complete rc ->
       Format.printf "%a@.@.%a@.@." Theorem.pp_certificate lc
         Rev.pp_certificate rc
     | _ ->
       let side name (s : _ X.side) =
         match s.X.result with
         | X.Completed _ -> Format.printf "%s: complete.@." name
         | X.Stopped stop ->
           Format.printf "%s: partial (%a).@." name Theorem.pp_stop stop
       in
       side "lemmas" lem;
       side "revisionist" rev);
    match c.X.verdict with
    | X.Agreed bound -> Format.printf "engines agree: space bound %d.@." bound
    | X.Diverged reason -> Format.printf "engines DIVERGE: %s@." reason
    | X.Unavailable _ ->
      Format.printf
        "no comparison: both constructions must complete; raise budgets and rerun.@."
  end;
  verdict_exit c.X.verdict

(* witness *)
let witness n horizon protocol diagram deadline max_nodes metrics json certificate engine =
  let req =
    { defaults with Request.op = Request.Witness; protocol; n; horizon; deadline; max_nodes }
  in
  with_metrics metrics @@ fun () ->
  match engine with
  | `Lemmas -> answer_request ~diagram ~json ~certificate req
  | `Both when certificate <> None ->
    prerr_endline
      "witness: --certificate needs a single engine; pick --engine lemmas or revisionist.";
    1
  | (`Revisionist | `Both) as engine -> (
    (* the daemon does not serve these engines: they are called here, on
       the same request checks and refusal codes *)
    match (Request.validate req, Catalog.find protocol ~n) with
    | Error msg, _ -> refuse ~json ("invalid-argument", msg)
    | Ok _, Error m -> refuse ~json ("unknown-protocol", m)
    | Ok req, Ok (Protocol.Packed proto) -> (
      let budget = budget_of req in
      match
        if engine = `Revisionist then
          witness_revisionist ~json ~certificate ~budget ~horizon proto
        else print_comparison ~json ~budget ~horizon proto
      with
      | code -> code
      | exception exn -> refuse ~json (Dispatch.refusal exn)))

let horizon_arg =
  Arg.(value & opt (some int) defaults.Request.horizon & info [ "horizon" ] ~docv:"H"
         ~doc:"Valency oracle search depth (lemmas) or private-run step \
               allowance (revisionist); default: escalate from 10n.")

let witness_cmd =
  let diagram =
    Arg.(value & flag & info [ "diagram" ] ~doc:"Render the witness as a space-time diagram.")
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Run a lower-bound adversary (Zhu Theorem-1 by default; select \
             with --engine)")
    Term.(const witness $ n_arg $ horizon_arg $ protocol_arg $ diagram
          $ deadline_arg $ max_nodes_arg $ metrics_arg $ json_arg
          $ certificate_arg $ engine_arg)

let max_configs_arg =
  Arg.(value & opt int defaults.Request.max_configs
       & info [ "max-configs" ] ~doc:"Exploration cap.")

let max_depth_arg =
  Arg.(value & opt int defaults.Request.max_depth
       & info [ "max-depth" ] ~doc:"Depth cap.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"D" ~doc:"Check input vectors on D domains.")

let solo_budget_arg =
  Arg.(value & opt int defaults.Request.solo_budget
       & info [ "solo-budget" ] ~docv:"STEPS"
           ~doc:"Step cap for each solo (and survivor-group) termination \
                 probe.")

let t_faults_arg =
  Arg.(value & opt int defaults.Request.t_faults
       & info [ "t" ] ~docv:"T" ~doc:"Crash-fault tolerance to check (0 <= t <= n-1).")

(* check and resilient: one bounded exploration each; check has no -t
   flag and sends the default *)
let explore op n t_faults protocol max_configs max_depth solo_budget domains
    deadline max_nodes metrics json certificate =
  install_flush_handler ();
  with_metrics metrics @@ fun () ->
  answer_request ~domains ~json ~certificate
    { defaults with
      Request.op; protocol; n; t_faults; max_configs; max_depth; solo_budget;
      deadline; max_nodes }

let explore_cmd info op t_faults =
  Cmd.v info
    Term.(const (explore op) $ n_arg $ t_faults $ protocol_arg $ max_configs_arg
          $ max_depth_arg $ solo_budget_arg $ domains_arg $ deadline_arg
          $ max_nodes_arg $ metrics_arg $ json_arg $ certificate_arg)

let check_cmd =
  explore_cmd
    (Cmd.info "check" ~doc:"Bounded model-check a protocol")
    Request.Check
    (Term.const defaults.Request.t_faults)

let resilient_cmd =
  explore_cmd
    (Cmd.info "resilient"
       ~doc:"Check t-resilient termination under crash-stop faults")
    Request.Resilient t_faults_arg

(* dot *)
let dot_out n depth file =
  let proto = Racing.make ~n in
  let t = Valency.create proto ~horizon:(30 * n) in
  let inputs = Theorem.canonical_inputs n in
  let dot, stats =
    Valgraph.dot t ~inputs ~pset:(Pset.all n) ~depth ~max_nodes:5_000
  in
  let oc = open_out file in
  output_string oc dot;
  close_out oc;
  Format.printf
    "wrote %s: %d configurations, %d edges (%d bivalent, %d 0-univalent, %d 1-univalent)@."
    file stats.Valgraph.nodes stats.Valgraph.edges stats.Valgraph.bivalent
    stats.Valgraph.univalent0 stats.Valgraph.univalent1;
  0

let dot_cmd =
  let depth = Arg.(value & opt int 10 & info [ "depth" ] ~docv:"D" ~doc:"Exploration depth.") in
  let file =
    Arg.(value & opt string "valency.dot" & info [ "o" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export the valency-annotated configuration graph (Graphviz)")
    Term.(const dot_out $ n_arg $ depth $ file)

(* trace *)
let trace_run n horizon protocol out metrics deadline max_nodes =
  Obs.start_tracing ();
  if metrics then Obs.Metrics.start ();
  let export events =
    let oc = open_out out in
    output_string oc (Obs_export.chrome_trace events);
    close_out oc
  in
  (* an interrupted trace run still writes the spans gathered so far —
     a partial trace of a stuck search is the most useful trace of all *)
  install_flush_handler ()
    ~flush:(fun () ->
      if Obs.tracing () then begin
        let events = Obs.stop_tracing () in
        export events;
        Format.eprintf "wrote partial trace to %s (%d events).@." out
          (List.length events)
      end);
  let answer =
    ask { defaults with Request.op = Request.Witness; protocol; n; horizon; deadline; max_nodes }
  in
  match (answer, Obs.stop_tracing ()) with
  | Error refusal, [] -> refuse ~json:false refusal
  | _, events -> (
    (* a refusal after the first span still exports the spans recorded
       up to the failure point *)
    export events;
    print_string (Obs_export.phase_table events);
    Format.printf
      "@.wrote %s (%d events); load it in chrome://tracing or https://ui.perfetto.dev@."
      out (List.length events);
    if metrics then
      Format.printf "@.engine metrics:@.%a@." Obs.Metrics.pp_snapshot
        (Obs.Metrics.stop ());
    match answer with
    | Ok (Dispatch.Witness_partial { stop; _ }) ->
      Format.printf
        "@.partial run traced (%a): the spans cover the work done before the budget tripped.@."
        Theorem.pp_stop stop;
      2
    | Ok a ->
      Format.printf "@.theorem 1 construction complete.@.";
      answer_exit a
    | Error refusal -> refuse ~json:false refusal)

let trace_cmd =
  let protocol_pos =
    Arg.(value & pos 0 string "racing"
         & info [] ~docv:"PROTOCOL"
             ~doc:"Protocol to trace (same names as --protocol elsewhere).")
  in
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Chrome trace_event JSON output file.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run the Theorem-1 adversary with span tracing armed and export \
             the phase breakdown plus a Chrome/Perfetto trace")
    Term.(const trace_run $ n_arg $ horizon_arg $ protocol_pos $ out
          $ metrics_arg $ deadline_arg $ max_nodes_arg)

(* analyze: the registry gate.  [--all] gates on the whole report;
   [--protocol NAME] gates on the protocol itself: flagged means defective,
   whatever the registry expected, and so does a failing gate. *)
let analyze all protocol json domains =
  let module A = Ts_analysis.Analyze in
  if all then begin
    let o = A.gate_all ~domains () in
    if json then pr_json (A.overall_to_json o)
    else Format.printf "%a@." A.pp_overall o;
    if o.A.ok then 0 else 1
  end
  else
    match protocol with
    | None ->
      prerr_endline "analyze: pass --all or --protocol NAME";
      2
    | Some name ->
      (match Ts_analysis.Registry.lookup name with
       | Error msg -> refuse ~json ("unknown-protocol", msg)
       | Ok entry ->
         let r = A.gate ~domains entry in
         if json then pr_json (A.report_to_json r)
         else Format.printf "%a@." A.pp_report r;
         if r.A.analysis.A.flagged || not r.A.ok then 1 else 0)

let analyze_cmd =
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Gate every registered protocol, certify the parallel \
                   engine race-free and check the registry against the \
                   catalog (the CI gate).")
  in
  let protocol =
    Arg.(value & opt (some string) None
         & info [ "protocol" ] ~docv:"NAME" ~doc:"Gate a single registered protocol.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the registry gate: footprint lint and determinism checker, \
             then (only for a protocol they pass) the bounded property \
             search, the two-engine comparison and the certificate checks \
             (micro-checker, engine replay, four tampers per witness); \
             with --all also the engine race detector")
    Term.(const analyze $ all $ protocol $ json $ domains_arg)

(* serve *)
module Server = Ts_service.Server

(* --fsync grammar: "always", "never" or a positive interval in seconds *)
let fsync_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "always" -> Ok Ts_store.Store.Always
    | "never" -> Ok Ts_store.Store.Never
    | s -> (
      match float_of_string_opt s with
      | Some f when f > 0. -> Ok (Ts_store.Store.Interval f)
      | _ -> Error (`Msg "expected always, never or a positive interval in seconds"))
  in
  let print ppf = function
    | Ts_store.Store.Always -> Format.pp_print_string ppf "always"
    | Ts_store.Store.Never -> Format.pp_print_string ppf "never"
    | Ts_store.Store.Interval f -> Format.fprintf ppf "%g" f
  in
  Arg.conv (parse, print)

let serve host port workers queue_cap cache_capacity deadline max_nodes
    store_path store_fsync verbose =
  let config =
    {
      Server.host;
      port;
      workers;
      queue_cap;
      cache_capacity;
      request_deadline = deadline;
      max_nodes;
      store_path;
      store_fsync;
      verbose;
    }
  in
  match Server.start config with
  | exception Unix.Unix_error (err, _, _) ->
    Format.eprintf "serve: cannot listen on %s:%d: %s@." host port
      (Unix.error_message err);
    1
  | exception Failure msg ->
    Format.eprintf "serve: %s@." msg;
    1
  | server ->
    (* machine-parseable: the CI smoke and the benchmark ledger scrape this *)
    Printf.printf "tightspace serve: listening on %s:%d (%d workers, queue %d, cache %d%s)\n%!"
      host (Server.port server) workers queue_cap cache_capacity
      (match store_path with Some p -> ", store " ^ p | None -> "");
    Ts_service.Signals.install ~exit_after:false ~on_signal:(fun signo ->
        Printf.eprintf "tightspace serve: %s received; draining...\n%!"
          (if signo = Sys.sigint then "SIGINT" else "SIGTERM");
        Server.request_stop server);
    (* idle in interruptible sleeps rather than blocking in a join, so the
       signal handler gets its safe point promptly *)
    let rec idle () =
      if not (Server.stopping server) then begin
        (try Unix.sleepf 0.2
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        idle ()
      end
    in
    idle ();
    Server.wait server;
    Format.printf "%a@." Server.pp_summary (Server.summary server);
    0

let serve_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(value & opt int 7433
         & info [ "port" ] ~docv:"PORT" ~doc:"TCP port; 0 picks an ephemeral one.")
  in
  let workers =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"W"
             ~doc:"Worker domains that run engine computations; cache and \
                   store hits are answered on the event loop without one.")
  in
  let queue_cap =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"Q"
             ~doc:"Bound on engine computations waiting for a worker; a \
                   request beyond it is refused with an overloaded error \
                   (backpressure) and its connection stays open.")
  in
  let cache_capacity =
    Arg.(value & opt int 4096
         & info [ "cache-capacity" ] ~docv:"C" ~doc:"Result-cache entries.")
  in
  let deadline =
    Arg.(value & opt (some float) (Some Request.daemon_deadline)
         & info [ "deadline" ] ~docv:"SECS"
             ~doc:"Default per-request wall-clock budget (requests may carry \
                   their own).")
  in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"PATH"
             ~doc:"Persist complete answers to the append-only witness log at \
                   PATH and recover previously-seen answers from it on start.")
  in
  let fsync =
    Arg.(value & opt fsync_conv Ts_store.Store.Always
         & info [ "fsync" ] ~docv:"POLICY"
             ~doc:"Store durability: always (fsync every append), never, or a \
                   positive interval in seconds.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log lifecycle events.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the adversary-query daemon: event-loop request handling, \
             worker-pool scheduling, sharded LRU result cache, optional \
             persistent witness store")
    Term.(const serve $ host $ port $ workers $ queue_cap $ cache_capacity
          $ deadline $ max_nodes_arg $ store $ fsync $ verbose)

(* query *)
let query host port opname protocol n horizon seed max_configs max_depth
    solo_budget t_faults deadline max_nodes id raw retries timeout_ms
    certificate =
  let module C = Ts_service.Client in
  match raw with
  | Some bytes -> (
    (* deliberately unframed bytes: the probe succeeds when the daemon
       answers with a well-formed error document instead of dying *)
    match C.connect ~host ~port () with
    | Error msg ->
      Printf.eprintf "query: cannot reach %s:%d: %s\n" host port msg;
      1
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> C.close c)
        (fun () ->
          C.send_raw c bytes;
          match C.recv c with
          | Ok doc -> pr_json doc; 0
          | Error msg -> Printf.eprintf "query: %s\n" msg; 1))
  | None -> (
    match Request.op_of_string opname with
    | None ->
      Printf.eprintf "query: unknown op %s (witness, check, resilient, valency, analyze, ping, stats, health)\n"
        opname;
      2
    | Some op ->
      let req =
        {
          defaults with
          Request.id;
          op;
          protocol;
          n;
          horizon;
          seed;
          max_configs;
          max_depth;
          solo_budget;
          t_faults;
          certificate;
          deadline;
          max_nodes;
        }
      in
      let policy =
        { C.default_policy with attempts = retries + 1; timeout_ms }
      in
      let client = C.make ~host ~policy ~port () in
      Fun.protect
        ~finally:(fun () -> C.shutdown client)
        (fun () ->
          match C.call client (Request.to_json req) with
          | Error msg ->
            (* the retry budget (including retries=0, a single attempt) is
               spent: exit 4, distinct from a protocol-level refusal *)
            Printf.eprintf "query: %s\n" msg;
            4
          | Ok doc ->
            pr_json doc;
            (match Ts_analysis.Json.member "ok" doc with
             | Some (Ts_analysis.Json.Bool true) -> 0
             | _ -> 1)))

let query_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Daemon address.")
  in
  let port =
    Arg.(value & opt int 7433 & info [ "port" ] ~docv:"PORT" ~doc:"Daemon port.")
  in
  let op =
    Arg.(value & pos 0 string "ping"
         & info [] ~docv:"OP"
             ~doc:"Operation: witness, check, resilient, valency, analyze, \
                   ping or stats.")
  in
  let id =
    Arg.(value & opt int defaults.Request.id
         & info [ "id" ] ~docv:"ID" ~doc:"Correlation id echoed by the daemon.")
  in
  let raw =
    Arg.(value & opt (some string) None
         & info [ "raw" ] ~docv:"BYTES"
             ~doc:"Send BYTES verbatim (no framing) and print the daemon's \
                   error response — the malformed-input probe.")
  in
  let retries =
    Arg.(value & opt int 4
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed request up to N times (transport faults \
                   and retryable refusals; exponential backoff).  0 means a \
                   single attempt.  Exit 4 when the budget is exhausted.")
  in
  let timeout_ms =
    Arg.(value & opt int 10_000
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-attempt read timeout in milliseconds; 0 disables it.  \
                   An engine op waits at least its deadline (else the \
                   daemon's 30 s) plus 5 s, so that the daemon's \
                   out-of-budget answer ends a slow request.")
  in
  let certificate =
    Arg.(value & flag
         & info [ "certificate" ]
             ~doc:"Ask the daemon to embed a witness certificate in the \
                   answer (witness, check and resilient; cache-key \
                   material, so certified and plain answers are distinct \
                   cache entries).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Send one request to a running serve daemon and print the \
             response document")
    Term.(const query $ host $ port $ op $ protocol_arg $ n_arg $ horizon_arg
          $ seed_arg $ max_configs_arg $ max_depth_arg $ solo_budget_arg $ t_faults_arg
          $ deadline_arg $ max_nodes_arg $ id $ raw $ retries $ timeout_ms
          $ certificate)

(* certify: the independent micro-checker as a standalone subcommand.
   Deliberately bypasses ts_cert's engine-side validation: this is the
   auditor's path, and it must work from the certificate bytes alone. *)
let certify_files files json =
  let module J = Ts_analysis.Json in
  let check_file f =
    match In_channel.with_open_bin f In_channel.input_all with
    | exception Sys_error msg -> `Unreadable msg
    | bytes -> (
      match Ts_microcheck.Microcheck.check_string bytes with
      | Ok () -> `Valid
      | Error e -> `Rejected e)
  in
  let results = List.map (fun f -> (f, check_file f)) files in
  if json then
    pr_json
      (J.List
         (List.map
            (fun (f, r) ->
              J.Obj
                [
                  ("file", J.Str f);
                  ("verdict",
                   J.Str
                     (match r with
                      | `Valid -> "valid"
                      | `Rejected _ -> "rejected"
                      | `Unreadable _ -> "unreadable"));
                  ("detail",
                   match r with
                   | `Valid -> J.Null
                   | `Rejected e | `Unreadable e -> J.Str e);
                ])
            results))
  else
    List.iter
      (fun (f, r) ->
        match r with
        | `Valid -> Format.printf "%s: valid@." f
        | `Rejected e -> Format.printf "%s: REJECTED (%s)@." f e
        | `Unreadable e -> Format.printf "%s: unreadable (%s)@." f e)
      results;
  if List.exists (fun (_, r) -> match r with `Unreadable _ -> true | _ -> false)
       results
  then 2
  else if
    List.exists (fun (_, r) -> match r with `Rejected _ -> true | _ -> false)
      results
  then 3
  else 0

let certify_cmd =
  let files =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILE" ~doc:"Certificate files (canonical JSON).")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Check witness certificates with the independent stdlib-only \
             micro-checker (exit 3 if any certificate is rejected, 2 if a \
             file cannot be read)")
    Term.(const certify_files $ files $ json_arg)

(* store: offline inspection of a witness log *)

(* --audit: replay every recovered record's embedded certificate through
   the independent micro-checker.  A record whose answer carries no
   certificate is reported but does not fail the audit (plain cached
   answers are legitimate); a certificate the checker rejects does. *)
let audit_store st =
  let module S = Ts_store.Store in
  let module J = Ts_analysis.Json in
  let keys = ref [] in
  S.iter st (fun k _ -> keys := k :: !keys);
  List.rev_map
    (fun k ->
      let verdict =
        match S.find st k with
        | None -> Error "indexed record unreadable"
        | Some value -> (
          match J.of_string value with
          | Error e -> Error ("stored answer is not JSON: " ^ e)
          | Ok doc -> (
            match J.member "certificate" doc with
            | None -> Ok `Nocert
            | Some cert -> (
              match
                Ts_microcheck.Microcheck.check_string (J.to_string cert)
              with
              | Ok () -> Ok `Pass
              | Error e -> Error e)))
      in
      (k, verdict))
    !keys

let store_inspect path json keys audit =
  let module S = Ts_store.Store in
  match S.open_ ~fsync:S.Never path with
  | Error msg ->
    Printf.eprintf "store: %s\n" msg;
    2
  | Ok st ->
    Fun.protect
      ~finally:(fun () -> S.close st)
      (fun () ->
        let s = S.stats st in
        let audit_results = if audit then Some (audit_store st) else None in
        if json then begin
          let module J = Ts_analysis.Json in
          let key_list =
            if not keys then []
            else begin
              let acc = ref [] in
              S.iter st (fun k vlen ->
                  acc :=
                    J.Obj
                      [
                        ("key", J.Str (Ts_model.Ckey.to_hex k));
                        ("value_bytes", J.Int vlen);
                      ]
                    :: !acc);
              [ ("keys", J.List (List.rev !acc)) ]
            end
          in
          let audit_list =
            match audit_results with
            | None -> []
            | Some results ->
              [ ("audit",
                 J.List
                   (List.map
                      (fun (k, verdict) ->
                        J.Obj
                          [
                            ("key", J.Str (Ts_model.Ckey.to_hex k));
                            ("verdict",
                             J.Str
                               (match verdict with
                                | Ok `Pass -> "pass"
                                | Ok `Nocert -> "no-certificate"
                                | Error _ -> "fail"));
                            ("detail",
                             match verdict with
                             | Ok _ -> J.Null
                             | Error e -> J.Str e);
                          ])
                      results)) ]
          in
          pr_json
            (J.Obj
               ([
                  ("path", J.Str (S.path st));
                  ("version", J.Int S.store_version);
                  ("stats", Ts_service.Response.store_stats_to_json s);
                ]
               @ key_list @ audit_list))
        end
        else begin
          Format.printf "witness log %s (format v%d)@.%a@." (S.path st)
            S.store_version S.pp_stats s;
          if keys then
            S.iter st (fun k vlen ->
                Format.printf "  %s  %d bytes@." (Ts_model.Ckey.to_hex k) vlen);
          match audit_results with
          | None -> ()
          | Some results ->
            let pass = ref 0 and nocert = ref 0 and fail = ref 0 in
            List.iter
              (fun (k, verdict) ->
                match verdict with
                | Ok `Pass ->
                  incr pass;
                  Format.printf "  %s  certificate pass@."
                    (Ts_model.Ckey.to_hex k)
                | Ok `Nocert ->
                  incr nocert;
                  Format.printf "  %s  no certificate@."
                    (Ts_model.Ckey.to_hex k)
                | Error e ->
                  incr fail;
                  Format.printf "  %s  certificate FAIL: %s@."
                    (Ts_model.Ckey.to_hex k) e)
              results;
            Format.printf "audit: %d pass, %d without certificate, %d fail@."
              !pass !nocert !fail
        end;
        let audit_failed =
          match audit_results with
          | None -> false
          | Some results ->
            List.exists
              (fun (_, verdict) -> Result.is_error verdict)
              results
        in
        (* a truncation performed during this open is worth a loud exit:
           the log was damaged, even though it is now repaired — as is a
           recovered answer whose certificate no longer checks out *)
        if s.S.torn_truncations > 0 || audit_failed then 1 else 0)

let store_cmd =
  let path =
    Arg.(value & pos 0 string "witness.log"
         & info [] ~docv:"PATH" ~doc:"The witness log file to inspect.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.") in
  let keys =
    Arg.(value & flag
         & info [ "keys" ] ~doc:"List every stored cache key and its answer size.")
  in
  let audit =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"Replay every recovered record's embedded certificate \
                   through the independent micro-checker; exit 1 if any \
                   certificate is rejected.")
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:"Inspect a persistent witness log: record counts, recovery \
             status, stored keys, certificate audit (exit 1 if a torn tail \
             was truncated or an audited certificate fails)")
    Term.(const store_inspect $ path $ json $ keys $ audit)

(* chaos: the fault-injection layer as a CLI — a standalone seeded proxy
   to put in front of a serve daemon, and the store crash-torture loop *)
module Chaos = Ts_service.Chaos

let chaos_proxy listen_port upstream_host upstream_port seed fault_prob
    class_spec max_delay_ms verbose =
  match Chaos.classes_of_string class_spec with
  | Error msg ->
    Printf.eprintf "chaos proxy: %s\n" msg;
    2
  | Ok classes -> (
    let config =
      {
        Chaos.listen_host = "127.0.0.1";
        listen_port;
        upstream_host;
        upstream_port;
        seed;
        fault_prob;
        classes;
        max_delay_ms;
        verbose;
      }
    in
    match Chaos.start config with
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "chaos proxy: cannot listen on 127.0.0.1:%d: %s\n"
        listen_port (Unix.error_message err);
      1
    | proxy ->
      (* machine-parseable, like serve's banner: harnesses scrape the port *)
      Printf.printf
        "tightspace chaos proxy: listening on 127.0.0.1:%d -> %s:%d (seed \
         %d, fault-prob %.2f, classes %s)\n%!"
        (Chaos.port proxy) upstream_host upstream_port seed fault_prob
        (Chaos.classes_to_string classes);
      let stop = Atomic.make false in
      Ts_service.Signals.install ~exit_after:false ~on_signal:(fun signo ->
          Printf.eprintf "tightspace chaos proxy: %s received; stopping...\n%!"
            (if signo = Sys.sigint then "SIGINT" else "SIGTERM");
          Atomic.set stop true);
      let rec idle () =
        if not (Atomic.get stop) then begin
          (try Unix.sleepf 0.2
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          idle ()
        end
      in
      idle ();
      Chaos.stop proxy;
      Format.printf "%a@." Chaos.pp_stats (Chaos.stats proxy);
      0)

let chaos_torture path iterations seed fsync json verbose =
  let module T = Ts_store.Torture in
  match T.run ?fsync ~seed ~iterations ~path () with
  | Error msg ->
    Printf.eprintf "chaos torture: INVARIANT VIOLATED: %s\n" msg;
    1
  | Ok r ->
    if json then print_endline (T.report_to_json r)
    else Format.printf "%a@." T.pp_report r;
    if verbose then
      Printf.eprintf "chaos torture: replay with --seed %d --iterations %d\n"
        seed iterations;
    0

let chaos_cmd =
  let seed default_seed =
    Arg.(value & opt int default_seed
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Master seed; the whole run replays exactly from it.")
  in
  let proxy_cmd =
    let listen_port =
      Arg.(value & opt int 0
           & info [ "port" ] ~docv:"PORT"
               ~doc:"Listen port; 0 picks an ephemeral one (printed in the \
                     banner).")
    in
    let upstream_host =
      Arg.(value & opt string "127.0.0.1"
           & info [ "upstream-host" ] ~docv:"ADDR" ~doc:"Daemon address.")
    in
    let upstream_port =
      Arg.(value & opt int 7433
           & info [ "upstream-port" ] ~docv:"PORT"
               ~doc:"The serving daemon to relay to.")
    in
    let fault_prob =
      Arg.(value & opt float 0.6
           & info [ "fault-prob" ] ~docv:"P"
               ~doc:"Probability an accepted connection draws a faulty plan; \
                     the rest relay verbatim.")
    in
    let classes =
      Arg.(value & opt string "all"
           & info [ "classes" ] ~docv:"SPEC"
               ~doc:"Comma-separated fault classes to enable: reset, \
                     truncate, corrupt, delay, throttle (or all, none).")
    in
    let max_delay =
      Arg.(value & opt int 25
           & info [ "max-delay-ms" ] ~docv:"MS"
               ~doc:"Injected latency is uniform in [1, MS].")
    in
    let verbose =
      Arg.(value & flag
           & info [ "verbose" ] ~doc:"Log every injected fault as it fires.")
    in
    Cmd.v
      (Cmd.info "proxy"
         ~doc:"Run a seeded fault-injecting TCP proxy in front of a serve \
               daemon: latency, throttling, mid-frame resets, truncation, \
               detectable corruption — until SIGINT, then print fault stats")
      Term.(const chaos_proxy $ listen_port $ upstream_host $ upstream_port
            $ seed 2026 $ fault_prob $ classes $ max_delay $ verbose)
  in
  let torture_cmd =
    let path =
      Arg.(value & opt string "chaos-torture.log"
           & info [ "path" ] ~docv:"PATH"
               ~doc:"Log file to torture (removed first; scratch space).")
    in
    let iterations =
      Arg.(value & opt int 300
           & info [ "iterations" ] ~docv:"N"
               ~doc:"Crash/reopen cycles to run.")
    in
    let fsync =
      Arg.(value & opt (some fsync_conv) None
           & info [ "fsync" ] ~docv:"POLICY"
               ~doc:"Pin the durability policy (always, never, interval \
                     seconds); by default each iteration draws one from the \
                     seed so every policy faces every crash class.")
    in
    let json =
      Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
    in
    let verbose =
      Arg.(value & flag
           & info [ "verbose" ] ~doc:"Print the replay command line.")
    in
    Cmd.v
      (Cmd.info "torture"
         ~doc:"Crash-torture the witness store: hundreds of seeded \
               append/crash/reopen cycles verifying the recovery contract \
               (exit 1 with iteration and seed on any violation)")
      Term.(const chaos_torture $ path $ iterations $ seed 2026 $ fsync
            $ json $ verbose)
  in
  Cmd.group
    (Cmd.info "chaos"
       ~doc:"Fault injection: a seeded chaos proxy for the daemon and \
             crash-torture for the witness store")
    [ proxy_cmd; torture_cmd ]

let () =
  let doc = "executable reproduction of 'A Tight Space Bound for Consensus'" in
  let info = Cmd.info "tightspace" ~version:"1.0.0" ~doc in
  (* Last-resort guard: engine exceptions that slip past a subcommand must
     surface as an actionable message and a nonzero exit, never as a raw
     backtrace.  [~catch:false] hands them to this handler instead of
     cmdliner's own, and it refuses them with the daemon's codes. *)
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             witness_cmd; check_cmd; resilient_cmd; dot_cmd; analyze_cmd;
             certify_cmd; trace_cmd; serve_cmd; query_cmd; store_cmd; chaos_cmd;
           ])
    with exn -> refuse ~json:false (Dispatch.refusal exn)
  in
  exit code
