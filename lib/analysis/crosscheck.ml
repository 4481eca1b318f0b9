open Ts_model
module Theorem = Ts_core.Theorem
module Budget = Ts_core.Budget
module Outcome = Ts_core.Outcome
module Revisionist = Ts_revisionist.Revisionist
module Cert = Ts_cert.Cert
module Obs = Ts_obs.Obs

type engine_result =
  | Completed of Outcome.summary * string list
  | Walled of string
  | Tripped of string

type 'o side = {
  outcome : 'o;
  used : int;
  result : engine_result;
  cert : Cert.t option;
  ns : int64;
}

type verdict =
  | Agreed of int
  | Diverged of string
  | Unavailable of string

type comparison = {
  lemmas : Theorem.outcome side;
  revisionist : Revisionist.outcome side;
  verdict : verdict;
}

let ns_since t0 = Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9)

(* Witness acceptance: the engine-side replay on the shared execution
   substrate, plus the certificate pipeline (engine validate + the
   independent micro-checker).  Returns the (empty-iff-accepted) error
   list and the certificate, when it could be built. *)
let accept proto ~replay ~cert =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  (match replay with Ok () -> () | Error m -> add ("replay: " ^ m));
  let built =
    match cert () with
    | exception Invalid_argument m ->
        add ("certificate build: " ^ m);
        None
    | c ->
        (match Cert.validate proto c with
        | Ok () -> ()
        | Error m -> add ("certificate replay: " ^ m));
        (match Cert.microcheck c with
        | Ok () -> ()
        | Error m -> add ("microcheck: " ^ m));
        Some c
  in
  (List.rev !errs, built)

(* Each engine runs under its witness policy, and a complete run is
   accepted or rejected; the time covers both. *)
let lemmas_side ~budget ?horizon proto =
  let t0 = Unix.gettimeofday () in
  let outcome, used = Theorem.witness ~budget ?horizon proto in
  let stopped stop = Format.asprintf "%a" Theorem.pp_stop stop in
  let result, cert =
    match outcome with
    | Theorem.Complete c ->
        let errs, cert =
          accept proto ~replay:(Theorem.verify c proto) ~cert:(fun () ->
              Cert.of_theorem proto c)
        in
        (Completed (Outcome.of_theorem c, errs), cert)
    | Theorem.Partial ((Theorem.Horizon_wall _ as stop), _) ->
        (Walled (stopped stop), None)
    | Theorem.Partial ((Theorem.Out_of_budget _ as stop), _) ->
        (Tripped (stopped stop), None)
  in
  { outcome; used; result; cert; ns = ns_since t0 }

let revisionist_side ~budget ?max_solo proto =
  let t0 = Unix.gettimeofday () in
  let outcome, used = Revisionist.witness ~budget ?max_solo proto in
  let stopped stop = Format.asprintf "%a" Revisionist.pp_stop stop in
  let result, cert =
    match outcome with
    | Revisionist.Complete c ->
        let errs, cert =
          accept proto ~replay:(Revisionist.verify c proto) ~cert:(fun () ->
              Cert.of_revisionist proto c)
        in
        (Completed (Revisionist.summary c, errs), cert)
    | Revisionist.Partial ((Revisionist.Search_wall _ as stop), _) ->
        (Walled (stopped stop), None)
    | Revisionist.Partial ((Revisionist.Out_of_budget _ as stop), _) ->
        (Tripped (stopped stop), None)
  in
  { outcome; used; result; cert; ns = ns_since t0 }

let verdict lemmas revisionist =
  match (lemmas, revisionist) with
  | Completed (_, e :: _), Completed _ ->
      Diverged ("lemmas witness rejected: " ^ e)
  | Completed _, Completed (_, e :: _) ->
      Diverged ("revisionist witness rejected: " ^ e)
  | Completed (a, []), Completed (b, []) -> (
      match Outcome.agree a b with
      | Ok bound -> Agreed bound
      | Error m -> Diverged m)
  | Completed _, Walled m ->
      Diverged ("only lemmas completed; revisionist stopped: " ^ m)
  | Walled m, Completed _ ->
      Diverged ("only revisionist completed; lemmas stopped: " ^ m)
  | Tripped m, Completed _ -> Unavailable ("lemmas ran out of budget: " ^ m)
  | Completed _, Tripped m ->
      Unavailable ("revisionist ran out of budget: " ^ m)
  | (Walled a | Tripped a), (Walled b | Tripped b) ->
      Unavailable
        (Printf.sprintf "neither engine completed (lemmas: %s; revisionist: %s)"
           a b)

let compare_engines ?(budget = fun () -> Budget.unlimited) ?horizon proto =
  let sp = Obs.enter ~cat:"crosscheck" "crosscheck.protocol" in
  Obs.set_str sp "protocol" proto.Protocol.name;
  Fun.protect ~finally:(fun () -> Obs.close sp) @@ fun () ->
  let lemmas = lemmas_side ~budget:(budget ()) ?horizon proto in
  let revisionist = revisionist_side ~budget:(budget ()) ?max_solo:horizon proto in
  let verdict = verdict lemmas.result revisionist.result in
  Obs.Metrics.incr "crosscheck.compared";
  (match verdict with
  | Agreed b ->
      Obs.Metrics.incr "crosscheck.agreed";
      Obs.set_int sp "bound" b
  | Diverged _ ->
      Obs.Metrics.incr "crosscheck.diverged";
      Obs.set_bool sp "diverged" true
  | Unavailable _ ->
      Obs.Metrics.incr "crosscheck.unavailable";
      Obs.set_bool sp "unavailable" true);
  { lemmas; revisionist; verdict }

(* --- the registry gate ------------------------------------------------- *)

type row = {
  name : string;
  expect : Registry.xcheck;
  comparison : comparison option;
  verdict : verdict;
}

type report = { rows : row list; ok : bool }

let run_entry ?(deadline = 15.0) (e : Registry.entry) : row =
  let (Protocol.Packed proto) = e.Registry.protocol in
  (* the lint controls cannot be stepped; mirror the analyzer's skip *)
  let lint_findings, _ =
    Lint.run e.Registry.claims proto ~inputs_list:e.Registry.inputs_list
      ~max_configs:e.Registry.max_configs ~max_depth:e.Registry.max_depth
  in
  let comparison, verdict =
    if Finding.errors lint_findings <> [] then
      (None, Unavailable "static lint errors — stepping this protocol is unsafe")
    else
      let c =
        compare_engines ~budget:(fun () -> Budget.create ~deadline ()) proto
      in
      (Some c, c.verdict)
  in
  { name = e.Registry.cli_name; expect = e.Registry.xcheck; comparison; verdict }

let row_ok (r : row) =
  match (r.expect, r.verdict) with
  | Registry.Expect_agree, Agreed _ -> true
  | Registry.Expect_agree, _ -> false
  | Registry.Expect_diverge, Diverged _ -> true
  | Registry.Expect_diverge, _ -> false
  | Registry.Informational, _ -> true

let run ?(domains = 1) ?deadline () : report =
  let entries = Registry.all () in
  let rows =
    if domains <= 1 then List.map (run_entry ?deadline) entries
    else Par.map_list ~domains (run_entry ?deadline) entries
  in
  let ok =
    List.for_all row_ok rows
    && List.exists (fun r -> match r.verdict with Agreed _ -> true | _ -> false) rows
  in
  { rows; ok }

(* --- rendering --------------------------------------------------------- *)

let expect_name = function
  | Registry.Expect_agree -> "agree"
  | Registry.Expect_diverge -> "diverge"
  | Registry.Informational -> "informational"

let summary_to_json (s : Outcome.summary) =
  Json.Obj
    [
      ("engine", Json.Str (Outcome.engine_name s.Outcome.engine));
      ("n", Json.Int s.Outcome.n);
      ("bound", Json.Int s.Outcome.bound);
      ("registers_written",
       Json.List (List.map (fun r -> Json.Int r) s.Outcome.registers_written));
      ("schedule_length", Json.Int s.Outcome.schedule_length);
      ("search_effort", Json.Int s.Outcome.search_effort);
    ]

let engine_result_to_json = function
  | Completed (s, errs) ->
      Json.Obj
        [
          ("status", Json.Str "complete");
          ("summary", summary_to_json s);
          ("witness_errors", Json.List (List.map (fun e -> Json.Str e) errs));
        ]
  | Walled reason | Tripped reason ->
      Json.Obj [ ("status", Json.Str "partial"); ("reason", Json.Str reason) ]

let verdict_to_json = function
  | Agreed bound ->
      Json.Obj [ ("status", Json.Str "agreed"); ("bound", Json.Int bound) ]
  | Diverged reason ->
      Json.Obj [ ("status", Json.Str "diverged"); ("reason", Json.Str reason) ]
  | Unavailable reason ->
      Json.Obj
        [ ("status", Json.Str "unavailable"); ("reason", Json.Str reason) ]

let row_to_json (r : row) =
  let ns x = Json.Int (Int64.to_int x) in
  let lemmas, lemmas_ns, revisionist, revisionist_ns =
    match r.comparison with
    | None -> (Json.Null, Json.Int 0, Json.Null, Json.Int 0)
    | Some c ->
        ( engine_result_to_json c.lemmas.result,
          ns c.lemmas.ns,
          engine_result_to_json c.revisionist.result,
          ns c.revisionist.ns )
  in
  Json.Obj
    [
      ("protocol", Json.Str r.name);
      ("expect", Json.Str (expect_name r.expect));
      ("verdict", verdict_to_json r.verdict);
      ("ok", Json.Bool (row_ok r));
      ("lemmas", lemmas);
      ("revisionist", revisionist);
      ("lemmas_ns", lemmas_ns);
      ("revisionist_ns", revisionist_ns);
    ]

let report_to_json (r : report) =
  let count p = List.length (List.filter p r.rows) in
  Json.Obj
    [
      ("ok", Json.Bool r.ok);
      ("agreed",
       Json.Int (count (fun x -> match x.verdict with Agreed _ -> true | _ -> false)));
      ("diverged",
       Json.Int
         (count (fun x -> match x.verdict with Diverged _ -> true | _ -> false)));
      ("unavailable",
       Json.Int
         (count (fun x ->
              match x.verdict with Unavailable _ -> true | _ -> false)));
      ("rows", Json.List (List.map row_to_json r.rows));
    ]

let pp_verdict ppf = function
  | Agreed bound -> Fmt.pf ppf "AGREE (bound %d)" bound
  | Diverged reason -> Fmt.pf ppf "DIVERGE: %s" reason
  | Unavailable reason -> Fmt.pf ppf "unavailable: %s" reason

let pp_row ppf (r : row) =
  Fmt.pf ppf "%-16s [expect %-13s] %a%s" r.name (expect_name r.expect)
    pp_verdict r.verdict
    (if row_ok r then "" else "  <-- gate failure")

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>%a@,crosscheck: %s@]"
    (Fmt.list ~sep:Fmt.cut pp_row)
    r.rows
    (if r.ok then "PASS" else "FAIL")
