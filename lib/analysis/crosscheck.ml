open Ts_model
module Theorem = Ts_core.Theorem
module Budget = Ts_core.Budget
module Revisionist = Ts_revisionist.Revisionist
module Cert = Ts_cert.Cert
module Obs = Ts_obs.Obs

type engine_result =
  | Completed of int * string list
  | Stopped of Theorem.stop

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
  lemmas : (Theorem.certificate, Theorem.progress) Theorem.outcome side;
  revisionist :
    (Revisionist.certificate, Revisionist.progress) Theorem.outcome side;
  verdict : verdict;
}

let ns_since t0 = Int64.of_float ((Unix.gettimeofday () -. t0) *. 1e9)

(* One engine's side: [run] is the engine under its witness policy, and a
   complete run is accepted only if the one claim check
   ([Theorem.verify]) accepts its witness and the witness's certificate
   passes [Cert.validate], the micro-checker and then the engine replay.
   The error list is empty iff the witness is accepted; the time covers
   the run and its acceptance. *)
let side proto ~run =
  let t0 = Unix.gettimeofday () in
  let outcome, used = run () in
  let result, cert =
    match outcome with
    | Theorem.Complete w ->
        let replay =
          match Theorem.verify w proto with
          | Ok () -> []
          | Error m -> [ "replay: " ^ m ]
        in
        let n = proto.Protocol.num_processes in
        (match Cert.of_theorem proto w with
        | exception Invalid_argument m ->
            (Completed (n, replay @ [ "certificate build: " ^ m ]), None)
        | cert ->
            let errs =
              match Cert.validate proto cert with
              | Ok () -> replay
              | Error m -> replay @ [ "certificate: " ^ m ]
            in
            (Completed (n, errs), Some cert))
    | Theorem.Partial (stop, _) -> (Stopped stop, None)
  in
  { outcome; used; result; cert; ns = ns_since t0 }

let verdict lemmas revisionist =
  let stopped = Format.asprintf "%a" Theorem.pp_stop in
  match (lemmas, revisionist) with
  | Completed (_, e :: _), Completed _ ->
      Diverged ("lemmas witness rejected: " ^ e)
  | Completed _, Completed (_, e :: _) ->
      Diverged ("revisionist witness rejected: " ^ e)
  | Completed (n, []), Completed (_, []) -> Agreed (n - 1)
  | Completed _, Stopped (Theorem.Wall _ as s) ->
      Diverged ("only lemmas completed; revisionist stopped: " ^ stopped s)
  | Stopped (Theorem.Wall _ as s), Completed _ ->
      Diverged ("only revisionist completed; lemmas stopped: " ^ stopped s)
  | Stopped (Theorem.Out_of_budget _ as s), Completed _ ->
      Unavailable ("lemmas ran out of budget: " ^ stopped s)
  | Completed _, Stopped (Theorem.Out_of_budget _ as s) ->
      Unavailable ("revisionist ran out of budget: " ^ stopped s)
  | Stopped a, Stopped b ->
      Unavailable
        (Printf.sprintf "neither engine completed (lemmas: %s; revisionist: %s)"
           (stopped a) (stopped b))

let compare_engines ?(budget = fun () -> Budget.unlimited) ?horizon proto =
  let sp = Obs.enter ~cat:"crosscheck" "crosscheck.protocol" in
  Obs.set_str sp "protocol" proto.Protocol.name;
  Fun.protect ~finally:(fun () -> Obs.close sp) @@ fun () ->
  let lemmas =
    side proto ~run:(fun () -> Theorem.witness ~budget:(budget ()) ?horizon proto)
  in
  let revisionist =
    side proto ~run:(fun () ->
        Revisionist.witness ~budget:(budget ()) ?max_solo:horizon proto)
  in
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

let verdict_to_json = function
  | Agreed bound ->
      Json.Obj [ ("status", Json.Str "agreed"); ("bound", Json.Int bound) ]
  | Diverged reason ->
      Json.Obj [ ("status", Json.Str "diverged"); ("reason", Json.Str reason) ]
  | Unavailable reason ->
      Json.Obj
        [ ("status", Json.Str "unavailable"); ("reason", Json.Str reason) ]

let pp_verdict ppf = function
  | Agreed bound -> Fmt.pf ppf "AGREE (bound %d)" bound
  | Diverged reason -> Fmt.pf ppf "DIVERGE: %s" reason
  | Unavailable reason -> Fmt.pf ppf "unavailable: %s" reason
