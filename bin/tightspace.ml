(* tightspace: command-line front end to the reproduction.

   Subcommands mirror the experiment families:
     witness    run the Zhu Theorem-1 adversary against a protocol
     check      bounded model-check a protocol's consensus properties
     jtt        run the perturbable-object covering adversary
     mutex      cost canonical mutual-exclusion executions
     encode     Fan-Lynch encoder/decoder round trip
     elect      run weak leader election under a random schedule
     multicore  run a protocol on real domains over atomics
     resilient  check t-resilient termination under crash-stop faults  *)
open Cmdliner
open Ts_model
open Ts_core
open Ts_protocols

let n_arg =
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg =
  Arg.(value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* Name resolution is delegated to the catalog so the CLI, the analysis
   registry and the serve daemon agree on what every name means. *)
let protocol_of_name name n =
  match Catalog.find name ~n with
  | Ok p -> Ok p
  | Error m -> Error (`Msg m)

let protocol_arg =
  Arg.(value & opt string "racing"
       & info [ "protocol" ] ~docv:"NAME"
           ~doc:("Protocol: " ^ Catalog.names_doc () ^ "."))

(* Resource-guard flags shared by the search subcommands. *)
let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Wall-clock budget; a tripped budget yields a partial result.")

let max_nodes_arg =
  Arg.(value & opt (some int) None
       & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Search-node budget across the whole invocation.")

let budget_of ?deadline ?max_nodes () =
  match deadline, max_nodes with
  | None, None -> Budget.unlimited
  | _ -> Budget.create ?deadline ?max_nodes ()

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
           ~doc:"Emit the machine-readable JSON document (the same \
                 serialization the serve daemon answers with) instead of \
                 human-readable text.")

let pr_json doc = print_endline (Ts_analysis.Json.to_string_pretty doc)

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
                 FILE.  Witness needs a complete construction; check and \
                 resilient need a violation.")

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
                 $(b,tightspace crosscheck) does: exit 0 when they agree \
                 on the bound, 1 when they diverge, 2 when there is \
                 nothing to compare).")

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
    else begin
      Format.printf "partial result: %a@.progress: %a@." Rev.pp_stop stop
        Rev.pp_progress progress;
      match stop with
      | Rev.Search_wall _ ->
        Format.printf
          "hint: raise --horizon beyond %d (or drop it to escalate automatically).@."
          used
      | Rev.Out_of_budget _ ->
        Format.printf "hint: raise --deadline / --max-nodes and rerun.@."
    end;
    if certificate <> None then
      Format.eprintf "no certificate: the construction was partial.@.";
    2

(* The two-engine comparison's exit code, shared by [witness --engine
   both] and [crosscheck --protocol]: 0 agreed, 1 diverged, 2 nothing to
   compare. *)
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
         | X.Walled reason | X.Tripped reason ->
           Format.printf "%s: partial (%s).@." name reason
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
  match protocol_of_name protocol n with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok (Protocol.Packed proto) ->
    with_metrics metrics @@ fun () ->
    let budget = budget_of ?deadline ?max_nodes () in
    match engine with
    | `Revisionist ->
      witness_revisionist ~json ~certificate ~budget ~horizon proto
    | `Both ->
      if certificate <> None then begin
        prerr_endline
          "witness: --certificate needs a single engine; pick --engine lemmas or revisionist.";
        1
      end
      else print_comparison ~json ~budget ~horizon proto
    | `Lemmas ->
    let outcome, used = Theorem.witness ~budget ?horizon proto in
    (match outcome with
     | Theorem.Complete cert ->
       let verified = Theorem.verify cert proto in
       if json then
         pr_json
           (Ts_service.Response.witness_to_json ~horizon_used:used ~verified
              cert)
       else begin
         Format.printf "%a@.(oracle horizon: %d)@." Theorem.pp_certificate cert used;
         if diagram then
           Format.printf "@.%s@." (Diagram.render ~n cert.Theorem.trace);
         match verified with
         | Ok () -> Format.printf "independent replay: verified.@."
         | Error e -> Format.printf "replay FAILED: %s@." e
       end;
       let cert_ok =
         match certificate with
         | None -> true
         | Some file ->
           write_certificate ~file (Ts_cert.Cert.of_theorem proto cert)
       in
       (match verified with Ok () when cert_ok -> 0 | _ -> 1)
     | Theorem.Partial (stop, progress) ->
       if json then
         pr_json
           (Ts_service.Response.witness_partial_to_json ~horizon_used:used stop
              progress)
       else begin
         Format.printf "partial result: %a@.progress: %a@." Theorem.pp_stop stop
           Theorem.pp_progress progress;
         match stop with
         | Theorem.Horizon_wall _ ->
           Format.printf "hint: raise --horizon beyond %d (or drop it to escalate automatically).@." used
         | Theorem.Out_of_budget _ ->
           Format.printf "hint: raise --deadline / --max-nodes and rerun.@."
       end;
       if certificate <> None then
         Format.eprintf "no certificate: the construction was partial.@.";
       2
     | exception Failure msg ->
       if json then
         pr_json
           (Ts_service.Response.error ~id:None ~code:"construction-failed" msg)
       else Format.printf "construction failed: %s@." msg;
       1)

let horizon_arg =
  Arg.(value & opt (some int) None & info [ "horizon" ] ~docv:"H"
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

(* check: shared result reporting for the exploration subcommands.

   Exit codes (documented in the README table): 0 clean, 1 violation, 2
   partial (budget tripped with no violation found — the verdict is
   evidence, not a proof, so scripts must be able to tell). *)
let explore_exit r =
  let open Ts_checker.Explore in
  match r.verdict with
  | Error _ -> 1
  | Ok () -> if r.stopped <> None then 2 else 0

let report_explore ?(json = false) ?replay r =
  let replay_result = replay in
  (* the open below shadows [replay] with Explore's replay function *)
  let open Ts_checker.Explore in
  if json then
    pr_json (Ts_service.Response.explore_to_json ?replay:replay_result r)
  else begin
    (match r.stopped with
     | Some b ->
       Format.printf "budget tripped (%a): verdict below is partial; raise --deadline / --max-nodes.@."
         Budget.pp_breach b
     | None -> ());
    match r.verdict with
    | Ok () ->
      let s = r.stats in
      Format.printf "clean: %d configurations explored (truncated: %b, deepest: %d)@."
        s.configs_explored s.truncated s.deepest
    | Error v -> Format.printf "VIOLATION: %a@." pp_violation v
  end;
  explore_exit r

let max_configs_arg =
  Arg.(value & opt int 60_000 & info [ "max-configs" ] ~doc:"Exploration cap.")

let max_depth_arg =
  Arg.(value & opt int 40 & info [ "max-depth" ] ~doc:"Depth cap.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"D" ~doc:"Check input vectors on D domains.")

let solo_budget_arg =
  Arg.(value & opt int Ts_service.Request.defaults.Ts_service.Request.solo_budget
       & info [ "solo-budget" ] ~docv:"STEPS"
           ~doc:"Step cap for each solo (and survivor-group) termination \
                 probe.")

(* A violation is the only checkable claim these subcommands produce; a
   clean verdict is a bounded guarantee with no finite witness to
   certify. *)
let certify_violation ~certificate proto (r : Ts_checker.Explore.result) =
  match certificate with
  | None -> true
  | Some file -> (
    match r.Ts_checker.Explore.verdict with
    | Error v ->
      write_certificate ~file (Ts_cert.Cert.of_violation proto v)
    | Ok () ->
      Format.eprintf "no certificate: no violation was found.@.";
      true)

let check n protocol max_configs max_depth solo_budget domains deadline max_nodes metrics json certificate =
  match protocol_of_name protocol n with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok (Protocol.Packed proto) ->
    install_flush_handler ();
    with_metrics metrics @@ fun () ->
    let r =
      Ts_checker.Explore.check_consensus proto ~domains
        ~budget:(budget_of ?deadline ?max_nodes ())
        ~inputs_list:(Ts_checker.Explore.binary_inputs n) ~max_configs ~max_depth
        ~solo_budget ~check_solo:true
    in
    let cert_ok = certify_violation ~certificate proto r in
    let code = report_explore ~json r in
    if cert_ok then code else 1

let check_cmd =
  Cmd.v (Cmd.info "check" ~doc:"Bounded model-check a protocol")
    Term.(const check $ n_arg $ protocol_arg $ max_configs_arg $ max_depth_arg
          $ solo_budget_arg $ domains_arg $ deadline_arg $ max_nodes_arg
          $ metrics_arg $ json_arg $ certificate_arg)

(* resilient *)
let resilient n t protocol max_configs max_depth solo_budget domains deadline max_nodes metrics json certificate =
  match protocol_of_name protocol n with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok (Protocol.Packed proto) ->
    install_flush_handler ();
    with_metrics metrics @@ fun () ->
    let r =
      Ts_checker.Explore.check_t_resilient proto ~domains ~t
        ~budget:(budget_of ?deadline ?max_nodes ())
        ~inputs_list:(Ts_checker.Explore.binary_inputs n) ~max_configs ~max_depth
        ~solo_budget
    in
    let replay =
      match r.Ts_checker.Explore.verdict with
      (* a resilience witness must survive an independent replay, at the
         budget it was found under *)
      | Error v -> Some (Ts_checker.Explore.replay ~solo_budget proto v)
      | Ok () -> None
    in
    (match replay with
     | Some (Ok ()) when not json ->
       Format.printf "witness replayed independently: confirmed.@."
     | Some (Error e) when not json ->
       Format.printf "witness replay FAILED: %s@." e
     | _ -> ());
    let cert_ok = certify_violation ~certificate proto r in
    let code = report_explore ~json ?replay r in
    if cert_ok then code else 1

let resilient_cmd =
  let t =
    Arg.(value & opt int 1
         & info [ "t" ] ~docv:"T" ~doc:"Crash-fault tolerance to check (0 <= t <= n-1).")
  in
  Cmd.v
    (Cmd.info "resilient"
       ~doc:"Check t-resilient termination under crash-stop faults")
    Term.(const resilient $ n_arg $ t $ protocol_arg $ max_configs_arg
          $ max_depth_arg $ solo_budget_arg $ domains_arg $ deadline_arg
          $ max_nodes_arg $ metrics_arg $ json_arg $ certificate_arg)

(* jtt *)
let jtt n obj =
  let run =
    match obj with
    | "counter" -> Some Ts_perturb.Adversary.run_counter
    | "maxreg" -> Some Ts_perturb.Adversary.run_maxreg
    | "snapshot" -> Some Ts_perturb.Adversary.run_snapshot
    | _ -> None
  in
  match run with
  | None -> prerr_endline ("unknown object: " ^ obj); 1
  | Some run ->
    Format.printf "%a@." Ts_perturb.Adversary.pp_report (run ~n);
    0

let jtt_cmd =
  let obj =
    Arg.(value & opt string "counter"
         & info [ "object" ] ~docv:"OBJ" ~doc:"counter, maxreg or snapshot.")
  in
  Cmd.v (Cmd.info "jtt" ~doc:"Run the perturbable-object covering adversary")
    Term.(const jtt $ n_arg $ obj)

(* mutex *)
let mutex n alg contended =
  let packed =
    match alg with
    | "peterson" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Peterson.make ~n))
    | "tournament" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Tournament.make ~n))
    | "bakery" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Bakery.make ~n))
    | "tas" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Tas_lock.make ~n))
    | _ -> None
  in
  match packed with
  | None -> prerr_endline ("unknown algorithm: " ^ alg); 1
  | Some (Ts_mutex.Algorithm.Packed a) ->
    let o =
      if contended then Ts_mutex.Arena.contended a
      else Ts_mutex.Arena.serial a ~order:(Array.init n Fun.id)
    in
    Format.printf "%s n=%d: cost=%d accesses=%d steps=%d (FL bound nlog2n = %.0f)@."
      o.Ts_mutex.Arena.algorithm n o.Ts_mutex.Arena.cost o.Ts_mutex.Arena.accesses
      o.Ts_mutex.Arena.steps (Bounds.fan_lynch_cost n);
    Format.printf "CS order: %a@." Fmt.(Dump.list int) o.Ts_mutex.Arena.cs_order;
    0

let mutex_cmd =
  let alg =
    Arg.(value & opt string "tournament"
         & info [ "alg" ] ~docv:"ALG" ~doc:"peterson, bakery, tournament or tas.")
  in
  let contended =
    Arg.(value & flag & info [ "contended" ] ~doc:"Round-robin contention instead of serial.")
  in
  Cmd.v (Cmd.info "mutex" ~doc:"Cost a canonical mutual-exclusion execution")
    Term.(const mutex $ n_arg $ alg $ contended)

(* encode *)
let encode n seed =
  let alg = Ts_mutex.Tournament.make ~n in
  let order = Rng.permutation (Rng.create seed) n in
  let o = Ts_mutex.Arena.serial alg ~order in
  match Ts_encoder.Codec.round_trip alg o with
  | Ok enc ->
    Format.printf "order %a -> %d bits (entropy floor log2(n!) = %.1f); decoded OK@."
      Fmt.(Dump.list int) (Array.to_list order) (snd enc.Ts_encoder.Codec.bits)
      (Bounds.log2_factorial n);
    0
  | Error e ->
    Format.printf "round trip failed: %s@." e;
    1

let encode_cmd =
  Cmd.v (Cmd.info "encode" ~doc:"Fan-Lynch encoder/decoder round trip")
    Term.(const encode $ n_arg $ seed_arg)

(* elect *)
let elect n seed =
  let rng = Rng.create seed in
  let s = Ts_objects.Runner.create (Ts_leader.Election.make ~n) in
  for p = 0 to n - 1 do
    Ts_objects.Runner.invoke s p Ts_leader.Election.Elect
  done;
  let pending = ref (List.init n Fun.id) in
  let leader = ref None in
  while !pending <> [] do
    let p = List.nth !pending (Rng.int rng (List.length !pending)) in
    match Ts_objects.Runner.step s p with
    | `Returned v ->
      if Value.to_bool v then leader := Some p;
      pending := List.filter (fun q -> q <> p) !pending
    | `Continues -> ()
  done;
  (match !leader with
   | Some p -> Format.printf "leader: p%d (everyone else learned they lost)@." p
   | None -> Format.printf "BUG: no leader elected@.");
  if !leader = None then 1 else 0

let elect_cmd =
  Cmd.v (Cmd.info "elect" ~doc:"Weak leader election under a random schedule")
    Term.(const elect $ n_arg $ seed_arg)

(* multicore *)
let multicore n trials seed =
  let s =
    Ts_runtime.Atomic_run.run (Racing.make ~n) ~trials ~seed ~step_budget:1_000_000
      ~mixed_inputs:true
  in
  Format.printf "%a@." Ts_runtime.Atomic_run.pp_stats s;
  if s.Ts_runtime.Atomic_run.agreement_failures = 0 then 0 else 1

let multicore_cmd =
  let trials = Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Number of trials.") in
  Cmd.v (Cmd.info "multicore" ~doc:"Run racing consensus on real domains")
    Term.(const multicore $ n_arg $ trials $ seed_arg)

(* kset *)
let kset n k seed =
  let proto = Kset.make ~n ~k in
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
  let o =
    Sim.run proto ~inputs ~policy:(Sim.Random rng) ~flips:(fun () -> Rng.bool rng)
      ~budget:2_000_000
  in
  let decided = List.sort_uniq Value.compare (List.map snd o.Sim.decisions) in
  Format.printf "inputs [%a]: %d processes decided %d distinct value(s) {%a} (k = %d)@."
    Fmt.(array ~sep:(any ";") Value.pp) inputs
    (List.length o.Sim.decisions) (List.length decided)
    Fmt.(list ~sep:comma Value.pp) decided k;
  if List.length decided <= k then 0 else 1

let kset_cmd =
  let k = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"At most k distinct decisions.") in
  Cmd.v (Cmd.info "kset" ~doc:"Run partitioned k-set agreement")
    Term.(const kset $ n_arg $ k $ seed_arg)

(* multi *)
let multi n bits seed =
  let proto = Multivalued.make ~n ~bits in
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Value.int (Rng.int rng (1 lsl bits))) in
  let o =
    Sim.run proto ~inputs ~policy:(Sim.Random rng) ~flips:(fun () -> Rng.bool rng)
      ~budget:3_000_000
  in
  (match Sim.agreement o with
   | Ok v ->
     Format.printf "inputs [%a] -> agreed on %a (%d-bit values, %d registers)@."
       Fmt.(array ~sep:(any ";") Value.pp) inputs Value.pp v bits
       proto.Protocol.num_registers;
     0
   | Error vs ->
     Format.printf "DISAGREEMENT: %a@." Fmt.(Dump.list Value.pp) vs;
     1)

let multi_cmd =
  let bits = Arg.(value & opt int 3 & info [ "bits" ] ~docv:"B" ~doc:"Input width in bits.") in
  Cmd.v (Cmd.info "multi" ~doc:"Run multivalued consensus (bit-by-bit reduction)")
    Term.(const multi $ n_arg $ bits $ seed_arg)

(* dot *)
let dot_out n depth file =
  let proto = Racing.make ~n in
  let t = Valency.create proto ~horizon:(30 * n) in
  let inputs = Array.init n (fun p -> Value.int (if p = 1 then 1 else 0)) in
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

(* cover *)
let cover n alg budget =
  let packed =
    match alg with
    | "peterson" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Peterson.make ~n))
    | "tournament" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Tournament.make ~n))
    | "bakery" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Bakery.make ~n))
    | "tas" -> Some (Ts_mutex.Algorithm.Packed (Ts_mutex.Tas_lock.make ~n))
    | _ -> None
  in
  match packed with
  | None -> prerr_endline ("unknown algorithm: " ^ alg); 1
  | Some (Ts_mutex.Algorithm.Packed a) ->
    Format.printf "%a@." Ts_mutex.Covering_search.pp_report
      (Ts_mutex.Covering_search.search a ~max_configs:budget);
    0

(* trace *)
let trace_run n horizon protocol out metrics deadline max_nodes =
  match protocol_of_name protocol n with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok (Protocol.Packed proto) ->
    let budget = budget_of ?deadline ?max_nodes () in
    Obs.start_tracing ();
    if metrics then Obs.Metrics.start ();
    (* an interrupted trace run still writes the spans gathered so far —
       a partial trace of a stuck search is the most useful trace of all *)
    install_flush_handler ()
      ~flush:(fun () ->
        if Obs.tracing () then begin
          let events = Obs.stop_tracing () in
          let oc = open_out out in
          output_string oc (Obs_export.chrome_trace events);
          close_out oc;
          Format.eprintf "wrote partial trace to %s (%d events).@." out
            (List.length events)
        end);
    (* Capture construction failures so a failed run still exports the
       spans recorded up to the failure point. *)
    let outcome =
      match fst (Theorem.witness ~budget ?horizon proto) with
      | o -> Ok o
      | exception Failure msg -> Error msg
    in
    let events = Obs.stop_tracing () in
    let oc = open_out out in
    output_string oc (Obs_export.chrome_trace events);
    close_out oc;
    print_string (Obs_export.phase_table events);
    Format.printf
      "@.wrote %s (%d events); load it in chrome://tracing or https://ui.perfetto.dev@."
      out (List.length events);
    if metrics then
      Format.printf "@.engine metrics:@.%a@." Obs.Metrics.pp_snapshot
        (Obs.Metrics.stop ());
    (match outcome with
     | Ok (Theorem.Complete _) ->
       Format.printf "@.theorem 1 construction complete.@."; 0
     | Ok (Theorem.Partial (stop, _)) ->
       Format.printf
         "@.partial run traced (%a): the spans cover the work done before the budget tripped.@."
         Theorem.pp_stop stop;
       2
     | Error msg -> Format.printf "@.construction failed: %s@." msg; 1)

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

(* analyze *)
let analyze all protocol json domains certify =
  let module A = Ts_analysis.Analyze in
  let pr_json j =
    print_endline (Ts_analysis.Json.to_string_pretty j)
  in
  let base =
    if all then begin
      let o = A.analyze_all ~domains () in
      if json then pr_json (A.overall_to_json o)
      else Format.printf "%a@." A.pp_overall o;
      if o.A.ok then 0 else 1
    end
    else
      match protocol with
      | None ->
        if certify then 0
        else begin
          prerr_endline "analyze: pass --all, --protocol NAME or --certify";
          2
        end
      | Some name ->
        (match Ts_analysis.Registry.find name with
         | None ->
           Printf.eprintf "analyze: unknown protocol %s (known: %s)\n" name
             (String.concat ", " (Ts_analysis.Registry.names ()));
           2
         | Some entry ->
           let r = A.analyze ~domains entry in
           if json then pr_json (A.report_to_json r)
           else Format.printf "%a@." A.pp_report r;
           (* single-protocol mode gates on the protocol itself: flagged means
              defective, whatever the registry expected *)
           if r.A.flagged then 1 else 0)
  in
  let certified =
    if not certify then 0
    else begin
      let module C = Ts_analysis.Certify in
      let r = C.run ~domains () in
      if json then pr_json (C.report_to_json r)
      else Format.printf "%a@." C.pp_report r;
      if r.C.ok then 0 else 1
    end
  in
  (* with both passes requested, either one failing fails the gate *)
  max base certified

let analyze_cmd =
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Analyze every registered protocol and certify the parallel \
                   engine race-free (the CI gate).")
  in
  let protocol =
    Arg.(value & opt (some string) None
         & info [ "protocol" ] ~docv:"NAME" ~doc:"Analyze a single registered protocol.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.") in
  let certify =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"Run the gating certificate pass: harvest every registry \
                   entry's witnesses, demand the independent micro-checker \
                   and the engine replay accept each one, and demand every \
                   tampered variant is rejected.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the static analyzers: footprint lint, determinism checker, \
             bounded property pass, engine race detector, certificate gate \
             (the two-engine cross-check is $(b,tightspace crosscheck))")
    Term.(const analyze $ all $ protocol $ json $ domains_arg $ certify)

let cover_cmd =
  let alg =
    Arg.(value & opt string "peterson" & info [ "alg" ] ~docv:"ALG" ~doc:"peterson, bakery, tournament or tas.")
  in
  let budget = Arg.(value & opt int 100_000 & info [ "budget" ] ~doc:"Configuration cap.") in
  Cmd.v (Cmd.info "cover" ~doc:"Search a lock's state space for covering configurations (BL93)")
    Term.(const cover $ n_arg $ alg $ budget)

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
    Arg.(value & opt (some float) (Some 30.)
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
    match Ts_service.Request.op_of_string opname with
    | None ->
      Printf.eprintf "query: unknown op %s (witness, check, resilient, valency, analyze, ping, stats, health)\n"
        opname;
      2
    | Some op ->
      let req =
        {
          Ts_service.Request.defaults with
          id;
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
          match C.call client (Ts_service.Request.to_json req) with
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
  let t_faults =
    Arg.(value & opt int 1
         & info [ "t" ] ~docv:"T" ~doc:"Crash-fault tolerance for resilient.")
  in
  let id =
    Arg.(value & opt int 0 & info [ "id" ] ~docv:"ID" ~doc:"Correlation id echoed by the daemon.")
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
             ~doc:"Per-attempt deadline in milliseconds; 0 disables it.")
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
          $ seed_arg $ max_configs_arg $ max_depth_arg $ solo_budget_arg $ t_faults
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

(* crosscheck: run both lower-bound engines over the registry and diff
   their answers.  Full-run exit gates on the report (every expectation
   met, at least one agreement); single-protocol exit gates on the
   agreement itself: 0 agreed, 1 diverged, 2 nothing to compare. *)
let crosscheck protocol json domains deadline metrics =
  let module X = Ts_analysis.Crosscheck in
  let pr_json j = print_endline (Ts_analysis.Json.to_string_pretty j) in
  with_metrics metrics @@ fun () ->
  match protocol with
  | Some name -> (
      match Ts_analysis.Registry.find name with
      | None ->
          Printf.eprintf "crosscheck: unknown protocol %S\n" name;
          2
      | Some e ->
          let row = X.run_entry ?deadline e in
          if json then pr_json (X.row_to_json row)
          else Format.printf "%a@." X.pp_row row;
          verdict_exit row.X.verdict)
  | None ->
      let r = X.run ~domains ?deadline () in
      if json then pr_json (X.report_to_json r)
      else Format.printf "%a@." X.pp_report r;
      if r.X.ok then 0 else 1

let crosscheck_cmd =
  let protocol =
    Arg.(value & opt (some string) None
         & info [ "protocol" ] ~docv:"NAME"
             ~doc:"Cross-check a single registry protocol instead of the \
                   whole registry.  Exit gates on the diff itself: 0 when \
                   the engines agree, 1 when they diverge, 2 when there is \
                   nothing to compare.")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Per-engine wall-clock budget for each protocol \
                   (default 15 s); a stuck construction degrades to a \
                   recorded partial rather than hanging the gate.")
  in
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:"Run both lower-bound engines — the Lemma 1-4 construction and \
             the revisionist-simulation engine — over every registry \
             protocol and diff their answers: identical space bounds, both \
             witnesses replayed and certified.  Exits 0 only when every \
             expected agreement holds and the planted divergence fixture \
             is caught.")
    Term.(const crosscheck $ protocol $ json_arg $ domains_arg $ deadline
          $ metrics_arg)

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
     cmdliner's own. *)
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             witness_cmd; check_cmd; resilient_cmd; jtt_cmd; mutex_cmd;
             encode_cmd; elect_cmd; multicore_cmd; kset_cmd; multi_cmd;
             dot_cmd; cover_cmd; analyze_cmd; certify_cmd; crosscheck_cmd;
             trace_cmd; serve_cmd; query_cmd; store_cmd; chaos_cmd;
           ])
    with
    | Valency.Horizon_exceeded msg ->
      Format.eprintf
        "tightspace: oracle horizon too small: %s@.hint: raise --horizon (or drop it to let the engine escalate).@."
        msg;
      3
    | Budget.Exhausted b ->
      Format.eprintf
        "tightspace: resource budget tripped (%a).@.hint: raise --deadline / --max-nodes and rerun.@."
        Budget.pp_breach b;
      3
    | Invalid_argument msg ->
      Format.eprintf
        "tightspace: invalid arguments: %s@.hint: check -n, -t, -k and the chosen --protocol fit together.@."
        msg;
      2
    | exn ->
      (* OCaml's own uncaught-exception exit is 2, which means "partial"
         here; an unexpected exception is an internal error *)
      Format.eprintf "tightspace: internal error, uncaught exception: %s@."
        (Printexc.to_string exn);
      125
  in
  exit code
