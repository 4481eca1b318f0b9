module Json = Ts_analysis.Json
module Obs = Ts_obs.Obs
module Store = Ts_store.Store

type config = {
  host : string;
  port : int;
  workers : int;
  queue_cap : int;
  cache_capacity : int;
  request_deadline : float option;
  max_nodes : int option;
  store_path : string option;
  store_fsync : Store.fsync;
  verbose : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_cap = 64;
    cache_capacity = 4096;
    request_deadline = Some Request.daemon_deadline;
    max_nodes = None;
    store_path = None;
    store_fsync = Store.Always;
    verbose = false;
  }

(* The [retry_after_ms] hints on refusals.  A full queue drains at worker
   speed — tell clients to come back after roughly one job's latency; a
   draining daemon never comes back, so steer them away for longer. *)
let retry_after_overloaded_ms = 50
let retry_after_draining_ms = 1000

type t = {
  config : config;
  bound_port : int;
  stop : bool Atomic.t;
  pool : Pool.t;
  dispatch : Dispatch.t;
  store : Store.t option;
  evloop : Evloop.t;
  mutable loop_domain : unit Domain.t option;
  started_at : float;
  requests : int Atomic.t;
  malformed : int Atomic.t;
  refused : int Atomic.t;
  direct : int Atomic.t;
  mutable waited : bool;
}

let log t fmt =
  if t.config.verbose then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let err_doc ?retry_after_ms ~id code msg =
  Json.to_string (Response.error ?retry_after_ms ~id ~code msg)

let malformed_doc t ~id code msg =
  Atomic.incr t.malformed;
  Obs.Metrics.incr "service.malformed";
  err_doc ~id code msg

(* The loop-side request path.  Everything here must be cheap: parse the
   document, route it, and either answer in place (hits, cheap ops,
   errors) or park it in the pool. *)
let on_payload t conn payload =
  match Json.of_string payload with
  | Error msg -> Evloop.Now (malformed_doc t ~id:None "bad-json" msg)
  | Ok doc -> (
    match Request.of_json doc with
    | Error msg ->
      let id = Option.bind (Json.member "id" doc) Json.to_int_opt in
      Evloop.Now (malformed_doc t ~id "bad-request" msg)
    | Ok req -> (
      Atomic.incr t.requests;
      match Dispatch.route t.dispatch req with
      | Dispatch.Answered doc ->
        Atomic.incr t.direct;
        Obs.Metrics.incr "service.loop.direct";
        Evloop.Now doc
      | Dispatch.Deferred run -> (
        let id = Some req.Request.id in
        let job () =
          (* [run] never raises; the catch-all keeps a parked connection
             from being orphaned even if that contract breaks *)
          let doc =
            try run ()
            with exn -> err_doc ~id "internal" (Printexc.to_string exn)
          in
          Evloop.post t.evloop conn doc
        in
        match Pool.submit t.pool job with
        | Pool.Accepted -> Evloop.Later
        | Pool.Overloaded ->
          Atomic.incr t.refused;
          Obs.Metrics.incr "service.refused";
          Evloop.Now
            (err_doc ~retry_after_ms:retry_after_overloaded_ms ~id
               "overloaded" "job queue full; retry later or raise --queue-cap")
        | Pool.Shutting_down ->
          Atomic.incr t.refused;
          Obs.Metrics.incr "service.refused";
          Evloop.Now
            (err_doc ~retry_after_ms:retry_after_draining_ms ~id
               "shutting-down" "daemon is draining"))))

let on_frame_error t e =
  Atomic.incr t.malformed;
  Obs.Metrics.incr "service.malformed";
  Some (err_doc ~id:None "bad-frame" (Frame.error_to_string e))

let start config =
  let store =
    match config.store_path with
    | None -> None
    | Some path -> (
      match Store.open_ ~fsync:config.store_fsync path with
      | Ok st -> Some st
      | Error msg -> failwith ("witness store: " ^ msg))
  in
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  (try
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port))
   with e ->
     (try Unix.close lsock with Unix.Unix_error _ -> ());
     (match store with Some st -> Store.close st | None -> ());
     raise e);
  Unix.listen lsock 64;
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let evloop = Evloop.create ~lsock in
  (* the dispatcher's stats hook needs the server record, which needs the
     dispatcher: tie the knot through a ref *)
  let stats_hook = ref (fun () -> []) in
  let dispatch =
    Dispatch.create ~cache_capacity:config.cache_capacity
      ?default_deadline:config.request_deadline
      ?default_max_nodes:config.max_nodes
      ~extra_stats:(fun () -> !stats_hook ())
      ?store ()
  in
  let pool = Pool.create ~workers:config.workers ~queue_cap:config.queue_cap in
  let stop = Atomic.make false in
  let t =
    {
      config;
      bound_port;
      stop;
      pool;
      dispatch;
      store;
      evloop;
      loop_domain = None;
      started_at = Unix.gettimeofday ();
      requests = Atomic.make 0;
      malformed = Atomic.make 0;
      refused = Atomic.make 0;
      direct = Atomic.make 0;
      waited = false;
    }
  in
  t.loop_domain <-
    Some
      (Domain.spawn (fun () ->
           Evloop.run evloop
             ~stop:(fun () -> Atomic.get stop)
             ~on_payload:(on_payload t) ~on_frame_error:(on_frame_error t)));
  stats_hook :=
    (fun () ->
      [
        ("queue_depth", Json.Int (Pool.queue_depth t.pool));
        ("workers", Json.Int (Pool.workers t.pool));
        ("connections", Json.Int (Evloop.accepted t.evloop));
        ("open_connections", Json.Int (Evloop.open_conns t.evloop));
        ("loop_iterations", Json.Int (Evloop.iterations t.evloop));
        ("direct", Json.Int (Atomic.get t.direct));
        ("requests", Json.Int (Atomic.get t.requests));
        ("malformed", Json.Int (Atomic.get t.malformed));
        ("refused", Json.Int (Atomic.get t.refused));
        ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_at));
      ]);
  log t "service: listening on %s:%d%s" config.host bound_port
    (match config.store_path with
     | Some p -> Printf.sprintf " (store %s)" p
     | None -> "");
  t

let port t = t.bound_port
let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop

let wait t =
  if not t.waited then begin
    t.waited <- true;
    (* order matters: the loop's drain waits for parked answers, which
       come from pool workers — join the loop before stopping the pool *)
    (match t.loop_domain with Some d -> Domain.join d | None -> ());
    Pool.shutdown t.pool;
    match t.store with Some st -> Store.close st | None -> ()
  end

let stop t =
  request_stop t;
  wait t

let dispatcher t = t.dispatch

type summary = {
  connections : int;
  requests : int;
  malformed : int;
  refused : int;
  direct : int;
  job_errors : int;
  cache : Ts_core.Cache.stats;
  store : Store.stats option;
  uptime : float;
}

let summary (t : t) =
  {
    connections = Evloop.accepted t.evloop;
    requests = Atomic.get t.requests;
    malformed = Atomic.get t.malformed;
    refused = Atomic.get t.refused;
    direct = Atomic.get t.direct;
    job_errors = Pool.job_errors t.pool;
    cache = Dispatch.cache_stats t.dispatch;
    store = Dispatch.store_stats t.dispatch;
    uptime = Unix.gettimeofday () -. t.started_at;
  }

let summary_to_json s =
  Json.Obj
    ([
       ("connections", Json.Int s.connections);
       ("requests", Json.Int s.requests);
       ("malformed", Json.Int s.malformed);
       ("refused", Json.Int s.refused);
       ("direct", Json.Int s.direct);
       ("job_errors", Json.Int s.job_errors);
       ("cache",
        Json.Obj
          [
            ("hits", Json.Int s.cache.Ts_core.Cache.hits);
            ("misses", Json.Int s.cache.Ts_core.Cache.misses);
            ("evictions", Json.Int s.cache.Ts_core.Cache.evictions);
            ("entries", Json.Int s.cache.Ts_core.Cache.entries);
          ]);
     ]
    @ (match s.store with
       | None -> []
       | Some st -> [ ("store", Response.store_stats_to_json st) ])
    @ [ ("uptime_s", Json.Float s.uptime) ])

let pp_summary ppf s =
  Format.fprintf ppf
    "served %d request%s (%d direct) on %d connection%s in %.1fs (%d \
     malformed, %d refused, %d handler error%s)@.cache: %a"
    s.requests
    (if s.requests = 1 then "" else "s")
    s.direct s.connections
    (if s.connections = 1 then "" else "s")
    s.uptime s.malformed s.refused s.job_errors
    (if s.job_errors = 1 then "" else "s")
    Ts_core.Cache.pp_stats s.cache;
  match s.store with
  | None -> ()
  | Some st -> Format.fprintf ppf "@.store: %a" Store.pp_stats st
