open Ts_model
module Theorem = Ts_core.Theorem
module Budget = Ts_core.Budget
module Revisionist = Ts_revisionist.Revisionist
module Cert = Ts_cert.Cert
module Obs = Ts_obs.Obs

type engine_result =
  | Completed of int * string list
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
        (Completed (c.Theorem.n, errs), cert)
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
        (Completed (c.Revisionist.n, errs), cert)
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
  | Completed (n, []), Completed (_, []) -> Agreed (n - 1)
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
