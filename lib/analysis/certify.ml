open Ts_model
module Cert = Ts_cert.Cert
module Explore = Ts_checker.Explore

(* The gating certificate pass behind [tightspace analyze --certify].

   For every registry entry it harvests the engine's witnesses — both
   engines' space-bound certificates for the entries the two-engine gate
   expects to agree, taken from that comparison, property violations for
   the negative controls, a resilience violation for the crash control, a
   1-agreement violation for the k-set protocol — wraps each in a
   {!Ts_cert.Cert} certificate and demands that

   - the independent micro-checker accepts it,
   - the engine-side protocol replay ({!Ts_cert.Cert.validate}) accepts it,
   - every mutated variant (schedule tamper, forged-verdict tamper with a
     recomputed digest, digest tamper, single byte flip) is rejected.

   A protocol with no executable witness (the lint controls, or a clean
   protocol the two-engine gate does not expect to agree) is recorded as
   skipped with its reason; everything else must certify. *)

type protocol_report = {
  name : string;
  witnesses : int;  (** certificates emitted for this protocol *)
  validated : int;  (** accepted by micro-checker + engine replay *)
  tampers : int;  (** mutants generated *)
  tampers_rejected : int;
  skipped : string option;  (** reason when no witness was attempted *)
  errors : string list;
  checker_ns : int64;  (** total micro-checker time, wall clock *)
  engine_ns : int64;  (** total witness-producing engine time *)
}

type report = { protocols : protocol_report list; ok : bool }

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, Int64.of_float ((t1 -. t0) *. 1e9))

(* Every mutation a certificate must survive^W die from. *)
let tampers (s : string) : (string * string) list =
  let mutants = ref [] in
  let add name m = mutants := (name, m) :: !mutants in
  (* 1. a single flipped byte, mid-document *)
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  add "byte-flip" (Bytes.to_string b);
  (match Cert.of_string s with
  | Error _ -> ()
  | Ok cert ->
      let module J = Ts_microcheck.Microcheck.Json in
      let doc = Cert.to_json cert in
      (match doc with
      | J.Obj kvs ->
          (* 2. schedule tamper with a forged digest — rejection must come
             from the replay, not the digest.  Reattribute the first step
             to a different process (the trace no longer agrees); an empty
             schedule gains a phantom step the trace does not have. *)
          let swap_field name f =
            List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) kvs
          in
          let tampered_schedule = function
            | J.List [] -> J.List [ J.Obj [ ("p", J.Int 0) ] ]
            | J.List (J.Obj ev :: rest) ->
                let ev =
                  List.map
                    (fun (k, v) ->
                      match (k, v) with
                      | "p", J.Int p -> (k, J.Int (p + 1))
                      | kv -> kv)
                    ev
                in
                J.List (J.Obj ev :: rest)
            | other -> other
          in
          add "schedule-tamper"
            (Cert.to_string
               (Cert.resign
                  (Cert.of_json
                     (J.Obj (swap_field "schedule" tampered_schedule)))));
          (* 3. verdict tamper: rewrite the claim wholesale (an empty
             object claims nothing the checker recognizes), digest forged *)
          add "verdict-tamper"
            (Cert.to_string
               (Cert.resign
                  (Cert.of_json (J.Obj (swap_field "claim" (fun _ -> J.Obj []))))));
          (* 4. digest tamper: zero the self-digest *)
          add "digest-tamper"
            (Cert.to_string
               (Cert.of_json
                  (J.Obj
                     (swap_field "digest" (fun _ -> J.Str (String.make 16 '0'))))))
      | _ -> ()));
  List.rev !mutants

(* Harvest the witnesses for one entry: (description, certificate) pairs,
   or a skip reason. *)
let harvest (e : Registry.entry) ~domains :
    ((string * Cert.t) list, string) result * int64 =
  let (Protocol.Packed proto) = e.Registry.protocol in
  (* the lint controls cannot be stepped; mirror the analyzer's skip *)
  let lint_findings, _ =
    Lint.run e.Registry.claims proto ~inputs_list:e.Registry.inputs_list
      ~max_configs:e.Registry.max_configs ~max_depth:e.Registry.max_depth
  in
  if Finding.errors lint_findings <> [] then
    (Error "static lint errors — stepping this protocol is unsafe", 0L)
  else
    let certs = ref [] in
    let explore ~k ~check_solo () =
      Explore.check_set_agreement ~domains ~k proto
        ~inputs_list:e.Registry.inputs_list ~max_configs:e.Registry.max_configs
        ~max_depth:e.Registry.max_depth ~solo_budget:e.Registry.solo_budget
        ~check_solo
    in
    let (), engine_ns =
      timed @@ fun () ->
      (* property violations: what makes the negative controls negative *)
      (match (explore ~k:e.Registry.k ~check_solo:true ()).Explore.verdict with
      | Error v ->
          certs :=
            ( Explore.violation_kind v,
              Cert.of_violation ~k:e.Registry.k proto v )
            :: !certs
      | Ok () -> ());
      (* k-set protocols also violate plain consensus: a second witness *)
      if e.Registry.k > 1 then (
        match (explore ~k:1 ~check_solo:false ()).Explore.verdict with
        | Error v -> certs := ("k1-" ^ Explore.violation_kind v,
                               Cert.of_violation ~k:1 proto v) :: !certs
        | Ok () -> ());
      (* the crash control yields a resilience witness *)
      if e.Registry.cli_name = "broken-wait" then (
        let r =
          Explore.check_t_resilient ~domains ~t:1 proto
            ~inputs_list:e.Registry.inputs_list
            ~max_configs:e.Registry.max_configs
            ~max_depth:e.Registry.max_depth
            ~solo_budget:e.Registry.solo_budget
        in
        match r.Explore.verdict with
        | Error v -> certs := ("resilience", Cert.of_violation proto v) :: !certs
        | Ok () -> ());
      (* space-bound witnesses from BOTH lower-bound engines, as the
         two-engine comparison built and accepted them: the revisionist
         witness certifies under the same kind, so the micro-checker and
         the mutant battery exercise second-engine certificates exactly
         like first-engine ones *)
      if e.Registry.xcheck = Registry.Expect_agree then
        match (Crosscheck.run_entry e).Crosscheck.comparison with
        | None -> ()
        | Some c ->
          let add what = Option.iter (fun cert -> certs := (what, cert) :: !certs) in
          add "space_bound" c.Crosscheck.lemmas.Crosscheck.cert;
          add "space_bound-revisionist" c.Crosscheck.revisionist.Crosscheck.cert
    in
    match List.rev !certs with
    | [] -> (Error "no witness emitted at gate budgets", engine_ns)
    | l -> (Ok l, engine_ns)

let certify_entry ~domains (e : Registry.entry) : protocol_report =
  let (Protocol.Packed proto) = e.Registry.protocol in
  let harvested, engine_ns = harvest e ~domains in
  match harvested with
  | Error reason ->
      { name = e.Registry.cli_name; witnesses = 0; validated = 0; tampers = 0;
        tampers_rejected = 0; skipped = Some reason; errors = [];
        checker_ns = 0L; engine_ns }
  | Ok certs ->
      let errors = ref [] in
      let validated = ref 0 in
      let tamper_total = ref 0 in
      let tamper_rejected = ref 0 in
      let checker_ns = ref 0L in
      List.iter
        (fun (what, cert) ->
          let s = Cert.to_string cert in
          let micro, ns = timed (fun () -> Cert.microcheck_string s) in
          checker_ns := Int64.add !checker_ns ns;
          let engine_side = Cert.validate proto cert in
          (match (micro, engine_side) with
          | Ok (), Ok () -> incr validated
          | Error m, _ ->
              errors :=
                Printf.sprintf "%s: micro-checker rejected a genuine witness: %s"
                  what m
                :: !errors
          | _, Error m ->
              errors :=
                Printf.sprintf "%s: engine replay rejected a genuine witness: %s"
                  what m
                :: !errors);
          List.iter
            (fun (mname, mutant) ->
              incr tamper_total;
              let verdict, ns =
                timed (fun () -> Cert.microcheck_string mutant)
              in
              checker_ns := Int64.add !checker_ns ns;
              match verdict with
              | Error _ -> incr tamper_rejected
              | Ok () ->
                  errors :=
                    Printf.sprintf "%s: %s mutant was ACCEPTED" what mname
                    :: !errors)
            (tampers s))
        certs;
      { name = e.Registry.cli_name; witnesses = List.length certs;
        validated = !validated; tampers = !tamper_total;
        tampers_rejected = !tamper_rejected; skipped = None;
        errors = List.rev !errors; checker_ns = !checker_ns; engine_ns }

let run ?(domains = 1) () =
  let protocols = List.map (certify_entry ~domains) (Registry.all ()) in
  let ok =
    protocols <> []
    && List.exists (fun p -> p.witnesses > 0) protocols
    && List.for_all
         (fun p ->
           p.errors = [] && p.validated = p.witnesses
           && p.tampers_rejected = p.tampers)
         protocols
  in
  { protocols; ok }

let report_to_json (r : report) =
  Json.Obj
    [
      "ok", Json.Bool r.ok;
      "protocols",
      Json.List
        (List.map
           (fun p ->
             Json.Obj
               [
                 "protocol", Json.Str p.name;
                 "witnesses", Json.Int p.witnesses;
                 "validated", Json.Int p.validated;
                 "tampers", Json.Int p.tampers;
                 "tampers_rejected", Json.Int p.tampers_rejected;
                 "skipped",
                 (match p.skipped with
                 | None -> Json.Null
                 | Some s -> Json.Str s);
                 "errors", Json.List (List.map (fun e -> Json.Str e) p.errors);
                 "checker_ns", Json.Int (Int64.to_int p.checker_ns);
                 "engine_ns", Json.Int (Int64.to_int p.engine_ns);
               ])
           r.protocols);
    ]

let pp_protocol ppf (p : protocol_report) =
  match p.skipped with
  | Some reason -> Fmt.pf ppf "%-14s skipped: %s" p.name reason
  | None ->
      Fmt.pf ppf
        "%-14s %d witness%s validated %d/%d, tampers rejected %d/%d (engine %.1f ms, checker %.3f ms)%a"
        p.name p.witnesses
        (if p.witnesses = 1 then "" else "es")
        p.validated p.witnesses p.tampers_rejected p.tampers
        (Int64.to_float p.engine_ns /. 1e6)
        (Int64.to_float p.checker_ns /. 1e6)
        (Fmt.list ~sep:Fmt.nop (fun ppf e -> Fmt.pf ppf "@,    ERROR: %s" e))
        p.errors

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>%a@,certify: %s@]"
    (Fmt.list ~sep:Fmt.cut pp_protocol)
    r.protocols
    (if r.ok then "PASS" else "FAIL")
