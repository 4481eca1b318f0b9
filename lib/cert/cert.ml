open Ts_model
module M = Ts_microcheck.Microcheck
module J = M.Json

let cert_version = 1

type t = J.t

let to_json t = t
let of_json j = j

(* --- value / schedule encoding ---------------------------------------- *)

let rec value_to_json (v : Value.t) : J.t =
  match v with
  | Value.Bot -> J.Null
  | Value.Int i -> J.Int i
  | Value.Bool b -> J.Bool b
  | Value.Pair (a, b) ->
      J.Obj [ ("fst", value_to_json a); ("snd", value_to_json b) ]
  | Value.List l -> J.List (List.map value_to_json l)

let rec value_of_json (j : J.t) : Value.t =
  match j with
  | J.Null -> Value.bot
  | J.Int i -> Value.int i
  | J.Bool b -> Value.bool b
  | J.Obj [ ("fst", a); ("snd", b) ] ->
      Value.pair (value_of_json a) (value_of_json b)
  | J.List l -> Value.list (List.map value_of_json l)
  | J.Str _ | J.Obj _ -> invalid_arg "Cert: malformed register value"

let event_to_json (e : Execution.event) : J.t =
  match e.Execution.coin with
  | None -> J.Obj [ ("p", J.Int e.Execution.pid) ]
  | Some b -> J.Obj [ ("p", J.Int e.Execution.pid); ("coin", J.Bool b) ]

let event_of_json (j : J.t) : Execution.event =
  match (J.member "p" j, J.member "coin" j) with
  | Some (J.Int p), None -> Execution.ev p
  | Some (J.Int p), Some (J.Bool b) -> Execution.flip p b
  | _ -> invalid_arg "Cert: malformed schedule event"

(* --- construction ------------------------------------------------------ *)

(* Replay [schedule] from the initial configuration for [inputs], recording
   per-step read results and swap-displaced values (the trace's [Action.t]
   alone does not carry them), and build the certificate body. *)
let build (proto : 's Protocol.t) ~kind ~(inputs : Value.t array) ~schedule
    ~claim : t =
  let cfg0 = Config.initial proto ~inputs in
  let final_cfg, trace = Execution.apply proto cfg0 schedule in
  let regs = Array.make proto.Protocol.num_registers Value.bot in
  let steps =
    List.map
      (fun (s : Execution.step_record) ->
        let p = ("p", J.Int s.Execution.actor) in
        match s.Execution.action with
        | Action.Read r ->
            J.Obj
              [ p; ("a", J.Str "read"); ("r", J.Int r);
                ("v", value_to_json regs.(r)) ]
        | Action.Write (r, v) ->
            regs.(r) <- v;
            J.Obj
              [ p; ("a", J.Str "write"); ("r", J.Int r);
                ("v", value_to_json v) ]
        | Action.Swap (r, v) ->
            let prev = regs.(r) in
            regs.(r) <- v;
            J.Obj
              [ p; ("a", J.Str "swap"); ("r", J.Int r);
                ("v", value_to_json v); ("prev", value_to_json prev) ]
        | Action.Flip ->
            let c =
              match s.Execution.coin_used with
              | Some b -> b
              | None -> invalid_arg "Cert: flip step without a coin"
            in
            J.Obj [ p; ("a", J.Str "flip"); ("coin", J.Bool c) ]
        | Action.Decide v ->
            J.Obj [ p; ("a", J.Str "decide"); ("v", value_to_json v) ])
      trace
  in
  if
    not
      (Array.for_all2 Value.equal regs
         (Array.init proto.Protocol.num_registers (Config.register final_cfg)))
  then invalid_arg "Cert: emission replay diverged from the configuration";
  let decided =
    List.init proto.Protocol.num_processes (fun p ->
        Option.map
          (fun v -> J.Obj [ ("p", J.Int p); ("v", value_to_json v) ])
          (Config.has_decided final_cfg p))
    |> List.filter_map Fun.id
  in
  let final =
    J.Obj
      [
        ("regs", J.List (Array.to_list (Array.map value_to_json regs)));
        ("decided", J.List decided);
      ]
  in
  let body =
    [
      ("cert_version", J.Int cert_version);
      ("kind", J.Str kind);
      ( "protocol",
        J.Obj
          [
            ("name", J.Str proto.Protocol.name);
            ("n", J.Int proto.Protocol.num_processes);
            ("registers", J.Int proto.Protocol.num_registers);
          ] );
      ("inputs", J.List (List.map value_to_json (Array.to_list inputs)));
      ("schedule", J.List (List.map event_to_json schedule));
      ("trace", J.List steps);
      ("final", final);
      ("state_digest", J.Str (M.fnv64_hex (J.to_string final)));
      ("claim", claim);
    ]
  in
  let digest = M.fnv64_hex (J.to_string (J.Obj body)) in
  J.Obj (body @ [ ("digest", J.Str digest) ])

let resign t =
  match t with
  | J.Obj kvs ->
      let body = J.Obj (List.filter (fun (k, _) -> k <> "digest") kvs) in
      let digest = M.fnv64_hex (J.to_string body) in
      (match body with
      | J.Obj kvs -> J.Obj (kvs @ [ ("digest", J.Str digest) ])
      | _ -> assert false)
  | other -> other

(* Both lower-bound engines produce the one witness record, so both
   certify under the "space_bound" kind with the claim [n - 1], and the
   micro-checker needs no engine-specific knowledge. *)
let of_theorem proto (w : _ Ts_core.Theorem.witness) =
  let open Ts_core.Theorem in
  let regs l = J.List (List.map (fun r -> J.Int r) l) in
  build proto ~kind:"space_bound" ~inputs:w.inputs ~schedule:w.schedule
    ~claim:
      (J.Obj
         [
           ("bound", J.Int (w.n - 1));
           ("registers_written", regs w.registers_written);
           ("covered", regs w.covered_registers);
           ("fresh_register", J.Int w.fresh_register);
         ])

let of_violation ?(k = 1) proto (v : Ts_checker.Explore.violation) =
  let open Ts_checker.Explore in
  match v with
  | Agreement_violation { inputs; schedule; values } ->
      build proto ~kind:"agreement" ~inputs ~schedule
        ~claim:
          (J.Obj
             [
               ("k", J.Int k);
               ("values", J.List (List.map value_to_json values));
             ])
  | Validity_violation { inputs; schedule; value } ->
      build proto ~kind:"validity" ~inputs ~schedule
        ~claim:(J.Obj [ ("value", value_to_json value) ])
  | Solo_stuck { inputs; schedule; pid } ->
      build proto ~kind:"solo-termination" ~inputs ~schedule
        ~claim:(J.Obj [ ("pid", J.Int pid) ])
  | Crash_stuck { inputs; schedule; crashed; survivors } ->
      let pids l = J.List (List.map (fun p -> J.Int p) l) in
      build proto ~kind:"resilience" ~inputs ~schedule
        ~claim:(J.Obj [ ("crashed", pids crashed); ("survivors", pids survivors) ])

(* --- serialization / checking ------------------------------------------ *)

let to_string = J.to_string
let of_string = J.of_string
let microcheck = M.check
let microcheck_string = M.check_string

let validate proto t =
  match M.check t with
  | Error m -> Error ("microcheck: " ^ m)
  | Ok () -> (
      (* Regenerate the certificate from its own inputs + schedule by
         running the real protocol, holding kind and claim fixed: byte
         equality then certifies that every step of the trace is exactly
         what the protocol was poised to do. *)
      try
        let field name =
          match J.member name t with
          | Some v -> v
          | None -> invalid_arg ("Cert: missing field " ^ name)
        in
        let kind =
          match field "kind" with
          | J.Str s -> s
          | _ -> invalid_arg "Cert: malformed kind"
        in
        let inputs =
          match field "inputs" with
          | J.List l -> Array.of_list (List.map value_of_json l)
          | _ -> invalid_arg "Cert: malformed inputs"
        in
        let schedule =
          match field "schedule" with
          | J.List l -> List.map event_of_json l
          | _ -> invalid_arg "Cert: malformed schedule"
        in
        let named =
          match J.member "name" (field "protocol") with
          | Some (J.Str s) -> s
          | _ -> invalid_arg "Cert: malformed protocol id"
        in
        if named <> proto.Protocol.name then
          Error
            (Printf.sprintf "certificate is for protocol %s, not %s" named
               proto.Protocol.name)
        else
          let rebuilt =
            build proto ~kind ~inputs ~schedule ~claim:(field "claim")
          in
          if String.equal (to_string rebuilt) (to_string t) then Ok ()
          else Error "protocol replay disagrees with the certificate trace"
      with
      | Invalid_argument msg -> Error msg
      | Failure msg -> Error msg)
