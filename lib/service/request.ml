module Json = Ts_analysis.Json

type op =
  | Witness
  | Check
  | Resilient
  | Valency
  | Analyze
  | Ping
  | Stats
  | Health

let op_to_string = function
  | Witness -> "witness"
  | Check -> "check"
  | Resilient -> "resilient"
  | Valency -> "valency"
  | Analyze -> "analyze"
  | Ping -> "ping"
  | Stats -> "stats"
  | Health -> "health"

let op_of_string = function
  | "witness" -> Some Witness
  | "check" -> Some Check
  | "resilient" -> Some Resilient
  | "valency" -> Some Valency
  | "analyze" -> Some Analyze
  | "ping" -> Some Ping
  | "stats" -> Some Stats
  | "health" -> Some Health
  | _ -> None

type t = {
  id : int;
  op : op;
  protocol : string;
  n : int;
  horizon : int option;
  seed : int;
  max_configs : int;
  max_depth : int;
  solo_budget : int;
  check_solo : bool;
  t_faults : int;
  certificate : bool;
  deadline : float option;
  max_nodes : int option;
}

(* The CLI's engine flags take their defaults from here. *)
let defaults =
  {
    id = 0;
    op = Ping;
    protocol = "racing";
    n = 3;
    horizon = None;
    seed = 2026;
    max_configs = 60_000;
    max_depth = 40;
    solo_budget = 300;
    check_solo = true;
    t_faults = 1;
    certificate = false;
    deadline = None;
    max_nodes = None;
  }

let daemon_deadline = 30.

(* Bounds and budgets are counts.  A negative one yields a complete but
   meaningless answer that the cache and the store would keep, and since
   Dispatch.cache_key packs an absent horizon as -1, "horizon": -1 would
   even share the default request's entry. *)
let validate r =
  let negative =
    List.find_opt
      (fun (_, i) -> i < 0)
      [
        ("horizon", Option.value r.horizon ~default:0);
        ("max_configs", r.max_configs);
        ("max_depth", r.max_depth);
        ("solo_budget", r.solo_budget);
      ]
  in
  match negative with
  | None -> Ok r
  | Some (k, i) -> Error (Printf.sprintf "field %S must be non-negative, got %d" k i)

(* Field decoding is total-with-defaults for optional fields but strict on
   type mismatches: a client sending {"n": "three"} gets an error, not the
   default silently. *)
let field_err k = Error (Printf.sprintf "field %S has the wrong type" k)

let get_int doc k default =
  match Json.member k doc with
  | None | Some Json.Null -> Ok default
  | Some v -> ( match Json.to_int_opt v with Some i -> Ok i | None -> field_err k)

let get_int_opt doc k default =
  match Json.member k doc with
  | None -> Ok default
  | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_int_opt v with Some i -> Ok (Some i) | None -> field_err k)

let get_float_opt doc k default =
  match Json.member k doc with
  | None -> Ok default
  | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_float_opt v with Some f -> Ok (Some f) | None -> field_err k)

let get_bool doc k default =
  match Json.member k doc with
  | None | Some Json.Null -> Ok default
  | Some v -> ( match Json.to_bool_opt v with Some b -> Ok b | None -> field_err k)

let get_str doc k default =
  match Json.member k doc with
  | None | Some Json.Null -> Ok default
  | Some v -> ( match Json.to_str_opt v with Some s -> Ok s | None -> field_err k)

let of_json doc =
  let ( let* ) = Result.bind in
  match doc with
  | Json.Obj _ ->
    let* op_name =
      match Json.member "op" doc with
      | None -> Error "missing required field \"op\""
      | Some v -> (
        match Json.to_str_opt v with Some s -> Ok s | None -> field_err "op")
    in
    let* op =
      match op_of_string op_name with
      | Some op -> Ok op
      | None -> Error (Printf.sprintf "unknown op %S" op_name)
    in
    let d = defaults in
    let* id = get_int doc "id" d.id in
    let* protocol = get_str doc "protocol" d.protocol in
    let* n = get_int doc "n" d.n in
    let* horizon = get_int_opt doc "horizon" d.horizon in
    let* seed = get_int doc "seed" d.seed in
    let* max_configs = get_int doc "max_configs" d.max_configs in
    let* max_depth = get_int doc "max_depth" d.max_depth in
    let* solo_budget = get_int doc "solo_budget" d.solo_budget in
    let* check_solo = get_bool doc "check_solo" d.check_solo in
    let* t_faults = get_int doc "t" d.t_faults in
    let* certificate = get_bool doc "certificate" d.certificate in
    let* deadline = get_float_opt doc "deadline" d.deadline in
    let* max_nodes = get_int_opt doc "max_nodes" d.max_nodes in
    validate
      {
        id; op; protocol; n; horizon; seed; max_configs; max_depth;
        solo_budget; check_solo; t_faults; certificate; deadline; max_nodes;
      }
  | _ -> Error "request must be a JSON object"

let to_json r =
  let opt_int = function None -> Json.Null | Some i -> Json.Int i in
  let opt_float = function None -> Json.Null | Some f -> Json.Float f in
  Json.Obj
    [
      ("id", Json.Int r.id);
      ("op", Json.Str (op_to_string r.op));
      ("protocol", Json.Str r.protocol);
      ("n", Json.Int r.n);
      ("horizon", opt_int r.horizon);
      ("seed", Json.Int r.seed);
      ("max_configs", Json.Int r.max_configs);
      ("max_depth", Json.Int r.max_depth);
      ("solo_budget", Json.Int r.solo_budget);
      ("check_solo", Json.Bool r.check_solo);
      ("t", Json.Int r.t_faults);
      ("certificate", Json.Bool r.certificate);
      ("deadline", opt_float r.deadline);
      ("max_nodes", opt_int r.max_nodes);
    ]
