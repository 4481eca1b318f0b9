open Ts_model
open Ts_core
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore
module Obs = Ts_obs.Obs
module Store = Ts_store.Store

let cache_version = 2

type t = {
  cache : string Cache.t;
  (* The cache holds the serialized result body, not a tree: hits splice
     into envelopes without re-rendering, and what the store persists is
     exactly what the cache would serve. *)
  store : Store.t option;
  default_deadline : float option;
  default_max_nodes : int option;
  extra_stats : unit -> (string * Json.t) list;
}

let create ?(cache_capacity = 4096) ?default_deadline ?default_max_nodes
    ?(extra_stats = fun () -> []) ?store () =
  let cache = Cache.create ~name:"service.cache" ~capacity:cache_capacity () in
  { cache; store; default_deadline; default_max_nodes; extra_stats }

(* The canonical key packing: varints and length-prefixed strings, the
   same self-delimiting building blocks as the engine's configuration
   keys, so the digest is injective over the field tuple. *)
let cache_key (r : Request.t) =
  let buf = Buffer.create 64 in
  let str s =
    Value.add_varint buf (String.length s);
    Buffer.add_string buf s
  in
  let int i = Value.add_varint buf i in
  let opt_int = function None -> int (-1) | Some i -> int i in
  int cache_version;
  str (Request.op_to_string r.Request.op);
  str r.Request.protocol;
  int r.Request.n;
  opt_int r.Request.horizon;
  int r.Request.seed;
  int r.Request.max_configs;
  int r.Request.max_depth;
  int r.Request.solo_budget;
  int (if r.Request.check_solo then 1 else 0);
  int r.Request.t_faults;
  int (if r.Request.certificate then 1 else 0);
  Ckey.of_string (Buffer.contents buf)

let cache_key_hex r = Ckey.to_hex (cache_key r)

let budget_of t (r : Request.t) =
  let deadline =
    match r.Request.deadline with Some d -> Some d | None -> t.default_deadline
  in
  let max_nodes =
    match r.Request.max_nodes with
    | Some m -> Some m
    | None -> t.default_max_nodes
  in
  match deadline, max_nodes with
  | None, None -> Budget.unlimited
  | _ -> Budget.create ?deadline ?max_nodes ()

exception Reject of string * string  (* code, message *)

let max_explore_n = Explore.max_n

type answer =
  | Witness of {
      horizon_used : int;
      cert : Theorem.certificate;
      replay : (unit, string) result;
      certificate : Ts_cert.Cert.t option;
    }
  | Witness_partial of {
      horizon_used : int;
      stop : Theorem.stop;
      progress : Theorem.progress;
    }
  | Explored of {
      result : Explore.result;
      replay : (unit, string) result option;
      certificate : Ts_cert.Cert.t option;
    }
  | Classified of {
      inputs : Value.t array;
      horizon : int;
      verdict : Valency.verdict;
      stats : Valency.stats;
    }
  | Analyzed of Ts_analysis.Analyze.analysis

let protocol_of (r : Request.t) =
  match Ts_protocols.Catalog.find r.Request.protocol ~n:r.Request.n with
  | Ok p -> p
  | Error msg -> raise (Reject ("unknown-protocol", msg))

let run ?domains ~budget (r : Request.t) =
  match r.Request.op with
  | Request.Witness -> (
    let (Protocol.Packed proto) = protocol_of r in
    match Theorem.witness ~budget ?horizon:r.Request.horizon proto with
    | Theorem.Complete cert, horizon_used ->
      let certificate =
        if r.Request.certificate then Some (Ts_cert.Cert.of_theorem proto cert)
        else None
      in
      Witness
        { horizon_used; cert; replay = Theorem.verify cert proto; certificate }
    | Theorem.Partial (stop, progress), horizon_used ->
      Witness_partial { horizon_used; stop; progress })
  | Request.Check | Request.Resilient ->
    (* before the protocol lookup: a large [n] is refused, not built *)
    Explore.refuse_large_n r.Request.n;
    let (Protocol.Packed proto) = protocol_of r in
    let inputs_list = Explore.binary_inputs r.Request.n in
    let { Request.max_configs; max_depth; solo_budget; _ } = r in
    let result, replay =
      if r.Request.op = Request.Check then
        ( Explore.check_consensus proto ?domains ~budget ~inputs_list
            ~max_configs ~max_depth ~solo_budget
            ~check_solo:r.Request.check_solo,
          None )
      else
        let result =
          Explore.check_t_resilient proto ?domains ~t:r.Request.t_faults ~budget
            ~inputs_list ~max_configs ~max_depth ~solo_budget
        in
        (* a resilience witness must survive an independent replay, at
           the budget it was found under *)
        match result.Explore.verdict with
        | Error v -> (result, Some (Explore.replay ~solo_budget proto v))
        | Ok () -> (result, None)
    in
    (* a violation is the only checkable claim an exploration produces; a
       clean verdict is a bounded guarantee with no finite witness *)
    let certificate =
      match (r.Request.certificate, result.Explore.verdict) with
      | true, Error v -> Some (Ts_cert.Cert.of_violation proto v)
      | _ -> None
    in
    Explored { result; replay; certificate }
  | Request.Valency ->
    let (Protocol.Packed proto) = protocol_of r in
    let horizon =
      match r.Request.horizon with Some h -> h | None -> 10 * r.Request.n
    in
    let v = Valency.create ~budget proto ~horizon in
    let inputs = Theorem.canonical_inputs r.Request.n in
    let i0 = Config.initial proto ~inputs in
    let verdict = Valency.classify v i0 (Pset.all r.Request.n) in
    Classified { inputs; horizon; verdict; stats = Valency.stats v }
  | Request.Analyze -> (
    match Ts_analysis.Registry.lookup r.Request.protocol with
    | Error msg -> raise (Reject ("unknown-protocol", msg))
    | Ok entry ->
      (* the registry gate's first stage: findings and lint summary *)
      Analyzed (Ts_analysis.Analyze.analyze entry))
  | Request.Ping | Request.Stats | Request.Health ->
    invalid_arg
      ("Dispatch.run: " ^ Request.op_to_string r.Request.op
     ^ " is not an engine operation")

(* Splice an emitted certificate into a result document.  The certificate
   is built in its own canonical JSON and re-parsed here: the digest binds
   the tree, not the rendering, so the round trip is harmless and cached /
   recovered copies stay independently checkable. *)
let with_certificate cert json =
  match cert with
  | None -> json
  | Some c -> (
    let cj =
      match Json.of_string (Ts_cert.Cert.to_string c) with
      | Ok j -> j
      | Error _ -> Json.Null
    in
    match json with
    | Json.Obj kvs -> Json.Obj (kvs @ [ ("certificate", cj) ])
    | other -> other)

let answer_to_json = function
  | Witness { horizon_used; cert; replay; certificate } ->
    with_certificate certificate
      (Response.witness_to_json ~horizon_used ~verified:replay cert)
  | Witness_partial { horizon_used; stop; progress } ->
    Response.witness_partial_to_json ~horizon_used stop progress
  | Explored { result; replay; certificate } ->
    with_certificate certificate (Response.explore_to_json ?replay result)
  | Classified { inputs; horizon; verdict; stats } ->
    Response.valency_to_json ~inputs ~horizon verdict stats
  | Analyzed analysis -> Ts_analysis.Analyze.analysis_to_json analysis

let complete = function
  | Witness { replay; _ } -> replay = Ok ()
  | Witness_partial _ -> false
  | Explored { result; _ } -> result.Explore.stopped = None
  | Classified _ | Analyzed _ -> true

let refusal = function
  | Reject (code, msg) -> (code, msg)
  | Invalid_argument msg -> ("invalid-argument", msg)
  | Failure msg -> ("construction-failed", msg)
  | Budget.Exhausted b ->
    ("out-of-budget", Format.asprintf "%a" Budget.pp_breach b)
  | Valency.Horizon_exceeded msg ->
    ("construction-failed", "oracle horizon too small: " ^ msg)
  | exn -> ("internal", Printexc.to_string exn)

(* The result document plus whether it is a complete answer (cacheable)
   — see the .mli cache policy. *)
let compute t (r : Request.t) : Json.t * bool =
  match r.Request.op with
  | Request.Ping -> (Json.Obj [ ("pong", Json.Bool true) ], false)
  | Request.Health ->
    (* liveness + a load snapshot cheap enough for the loop; no client
       reads it, only readiness probes such as the benchmark ledger's
       daemon start-up check *)
    ( Json.Obj
        ([ ("status", Json.Str "ok"); ("store", Json.Bool (t.store <> None)) ]
        @ t.extra_stats ()),
      false )
  | Request.Stats ->
    ( Json.Obj
        ([ ("cache", Response.cache_stats_to_json (Cache.stats t.cache)) ]
        @ (match t.store with
           | None -> []
           | Some st ->
             [ ("store", Response.store_stats_to_json (Store.stats st)) ])
        @ t.extra_stats ()),
      false )
  | Request.Witness | Request.Check | Request.Resilient | Request.Valency
  | Request.Analyze ->
    let a = run ~budget:(budget_of t r) r in
    (answer_to_json a, complete a)

let cacheable_op (r : Request.t) =
  match r.Request.op with
  | Request.Ping | Request.Stats | Request.Health -> false
  | Request.Witness | Request.Check | Request.Resilient | Request.Valency
  | Request.Analyze -> true

(* Map every engine exception to its stable error code; [f] produces the
   success document. *)
let guard ~id f =
  match f () with
  | response -> response
  | exception exn ->
    let code, msg = refusal exn in
    Obs.Metrics.incr "service.errors";
    Json.to_string (Response.error ~id:(Some id) ~code msg)

(* One "service.request" span per request, opened wherever the answer is
   actually produced (the loop for hits, a worker for computations). *)
let in_span (r : Request.t) f =
  let sp = Obs.enter ~cat:"service" "service.request" in
  Obs.set_str sp "op" (Request.op_to_string r.Request.op);
  Obs.set_str sp "protocol" r.Request.protocol;
  let out = guard ~id:r.Request.id f in
  Obs.close sp;
  out

type outcome =
  | Answered of string
  | Deferred of (unit -> string)

let route t (r : Request.t) =
  Obs.Metrics.incr "service.requests";
  if not (cacheable_op r) then
    (* ping/stats: O(counters), answered on the calling thread *)
    Answered
      (in_span r (fun () ->
           let started = Unix.gettimeofday () in
           let result, _ = compute t r in
           Response.envelope_raw ~id:r.Request.id ~provenance:None
             ~cache_key:None
             ~elapsed_ms:((Unix.gettimeofday () -. started) *. 1000.)
             ~result:(Json.to_string result)))
  else begin
    let key = cache_key r in
    let key_hex = Ckey.to_hex key in
    let hit provenance body started =
      Response.envelope_raw ~id:r.Request.id ~provenance:(Some provenance)
        ~cache_key:(Some key_hex)
        ~elapsed_ms:((Unix.gettimeofday () -. started) *. 1000.)
        ~result:body
    in
    let started = Unix.gettimeofday () in
    match Cache.find t.cache key with
    | Some body -> Answered (in_span r (fun () -> hit "cached" body started))
    | None -> (
      match
        match t.store with None -> None | Some st -> Store.find st key
      with
      | Some body ->
        (* warm the memory tier from the log *)
        Cache.put t.cache key body;
        Answered (in_span r (fun () -> hit "recovered" body started))
      | None ->
        Deferred
          (fun () ->
            in_span r (fun () ->
                let started = Unix.gettimeofday () in
                let result, complete = compute t r in
                let body = Json.to_string result in
                if complete then begin
                  Cache.put t.cache key body;
                  (* write through to the log; a key already stored
                     appends nothing *)
                  Option.iter
                    (fun st -> ignore (Store.append st ~key ~value:body))
                    t.store
                end;
                hit "fresh" body started)))
  end

let handle_raw t r =
  match route t r with Answered doc -> doc | Deferred run -> run ()

let handle t r =
  let raw = handle_raw t r in
  match Json.of_string raw with
  | Ok doc -> doc
  | Error msg ->
    (* a response we emitted must parse; anything else is a serializer bug *)
    invalid_arg ("Dispatch.handle: self-emitted document unparseable: " ^ msg)

let cache_stats t = Cache.stats t.cache
let store_stats t = Option.map Store.stats t.store
