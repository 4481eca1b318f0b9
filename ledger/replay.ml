(* The in-process replay behind the per-layer numbers.

   A prefix of a workload's seeded sequence goes through the same public
   functions the daemon's event loop calls, in the same order: framed
   bytes -> Frame.parse -> Json.of_string + Request.of_json ->
   Dispatch.route on a store-backed dispatcher -> the Deferred thunk on a
   bench-owned Pool.  One request is in flight at a time, so each
   request's time can be read off whole.

   Each request runs twice, on two dispatchers over two copies of the
   workload's log: untraced, then traced.  For the traced copy, span
   tracing and the metrics registry are armed around the request and
   drained after it, which attributes every engine span and counter to the
   request that caused it.  Interleaving the two replays request by
   request, alternating which goes first, keeps warm-up and drift out of
   the tracing overhead. *)

module Obs = Ts_obs.Obs
module Dispatch = Ts_service.Dispatch
module Frame = Ts_service.Frame
module Pool = Ts_service.Pool
module Request = Ts_service.Request
module Store = Ts_store.Store
module Json = Ts_analysis.Json

let now_ns = Daemon.now_ns
let ms_between = Daemon.ms_between

type step = {
  key : int;
  frame_us : float;
  decode_us : float;
  route_us : float;
  provenance : string;
  body : string;
  pool : (float * float) option;  (** queue wait, job run time (ms) *)
  events : Obs.event list;
  counters : Obs.Metrics.snapshot option;
}

type t = {
  plain : step array;  (** the untraced replay *)
  traced : step array;
  plain_ms : float;  (** summed request times of the untraced replay *)
  traced_ms : float;
  plain_cpu_ms : float;  (** user+sys CPU of this process over the untraced requests *)
  hits : int;  (** cache counters of the traced replay *)
  misses : int;
  evictions : int;
}

let cpu_now () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.

(* Run a Deferred thunk on the pool and wait for it; returns the answer,
   the submit -> start wait and the run time. *)
let on_pool pool run =
  let m = Mutex.create () and cv = Condition.create () and result = ref None in
  let submitted = now_ns () in
  let job () =
    let started = now_ns () in
    let sp = Obs.enter ~cat:"ledger" "ledger.job" in
    let doc = run () in
    Obs.close sp;
    let finished = now_ns () in
    Mutex.protect m (fun () ->
        result := Some (doc, started, finished);
        Condition.signal cv)
  in
  (match Pool.submit pool job with
   | Pool.Accepted -> ()
   | Pool.Overloaded | Pool.Shutting_down -> failwith "replay: the pool refused a job");
  Mutex.lock m;
  while !result = None do Condition.wait cv m done;
  Mutex.unlock m;
  let doc, started, finished = Option.get !result in
  (doc, (ms_between submitted started, ms_between started finished))

let finish pool = function
  | Dispatch.Answered doc -> (doc, None)
  | Dispatch.Deferred run ->
    let doc, times = on_pool pool run in
    (doc, Some times)

let step ~traced disp pool (w : Workload.t) ~seed i =
  let key = w.Workload.key ~seed i in
  let frame = Bytes.of_string (Workload.frame_of { (w.Workload.request key) with id = i }) in
  if traced then begin
    Obs.start_tracing ();
    Obs.Metrics.start ()
  end;
  let sp = Obs.enter ~cat:"ledger" "ledger.request" in
  let t0 = now_ns () in
  let payload =
    match Frame.parse frame ~pos:0 ~len:(Bytes.length frame) with
    | `Frame (off, n) -> Bytes.sub_string frame off n
    | `Need_more | `Error _ -> failwith "replay: a generated frame did not parse"
  in
  let t1 = now_ns () in
  let req =
    match Result.bind (Json.of_string payload) Request.of_json with
    | Ok r -> r
    | Error msg -> failwith ("replay: a generated request did not decode: " ^ msg)
  in
  let t2 = now_ns () in
  let route_sp = Obs.enter ~cat:"ledger" "ledger.route" in
  let outcome = Dispatch.route disp req in
  Obs.close route_sp;
  let t3 = now_ns () in
  let doc, pool_times = finish pool outcome in
  Obs.close sp;
  let events, counters =
    if traced then
      let ev = Obs.stop_tracing () in
      (ev, Some (Obs.Metrics.stop ()))
    else ([], None)
  in
  match Workload.envelope ~id:i doc with
  | Error msg -> failwith (Printf.sprintf "replay: request %d: %s" i msg)
  | Ok (provenance, body) ->
    {
      key;
      frame_us = ms_between t0 t1 *. 1000.;
      decode_us = ms_between t1 t2 *. 1000.;
      route_us = ms_between t2 t3 *. 1000.;
      provenance;
      body;
      pool = pool_times;
      events;
      counters;
    }

(* [run ~plain_log ~traced_log w ~seed] replays [w]'s prefix on two
   fresh dispatchers over the given witness logs, each configured as the
   daemon is (default cache, 30 s deadline, fsync always) and each after
   the workload's untimed warm-up. *)
let run ~plain_log ~traced_log (w : Workload.t) ~seed =
  let pool = Pool.create ~workers:2 ~queue_cap:64 in
  let side log =
    let st =
      match Store.open_ ~fsync:Store.Always log with
      | Ok st -> st
      | Error msg -> failwith ("replay: " ^ msg)
    in
    let disp = Dispatch.create ~default_deadline:30. ~store:st () in
    for k = 0 to w.Workload.warmed - 1 do
      ignore (finish pool (Dispatch.route disp { (w.Workload.request k) with id = k }))
    done;
    (st, disp)
  in
  let pst, pdisp = side plain_log and tst, tdisp = side traced_log in
  let c0 = Dispatch.cache_stats tdisp in
  let plain_ms = ref 0. and traced_ms = ref 0. and plain_cpu = ref 0. in
  let timed f =
    let c = cpu_now () and t = now_ns () in
    let r = f () in
    (r, ms_between t (now_ns ()), cpu_now () -. c)
  in
  let pairs =
    Array.init w.Workload.prefix (fun i ->
        let plain () = timed (fun () -> step ~traced:false pdisp pool w ~seed i) in
        let traced () = timed (fun () -> step ~traced:true tdisp pool w ~seed i) in
        (* whichever runs second finds the request's code and data warm *)
        let (p, ms, cpu), (t, tms, _) =
          if i mod 2 = 0 then
            let p = plain () in
            (p, traced ())
          else
            let t = traced () in
            (plain (), t)
        in
        plain_ms := !plain_ms +. ms;
        traced_ms := !traced_ms +. tms;
        plain_cpu := !plain_cpu +. cpu;
        (p, t))
  in
  let c1 = Dispatch.cache_stats tdisp in
  Pool.shutdown pool;
  Store.close pst;
  Store.close tst;
  let module C = Ts_core.Cache in
  {
    plain = Array.map fst pairs;
    traced = Array.map snd pairs;
    plain_ms = !plain_ms;
    traced_ms = !traced_ms;
    plain_cpu_ms = !plain_cpu;
    hits = c1.C.hits - c0.C.hits;
    misses = c1.C.misses - c0.C.misses;
    evictions = c1.C.evictions - c0.C.evictions;
  }

(* --- reading one request's spans -------------------------------------- *)

type span = { name : string; parent : int; ms : float }

let spans events =
  let opened = Hashtbl.create 64 and closed = Hashtbl.create 64 in
  List.iter
    (function
      | Obs.Span_open { id; parent; name; t; _ } -> Hashtbl.replace opened id (name, parent, t)
      | Obs.Span_close { id; t; _ } -> (
        match Hashtbl.find_opt opened id with
        | Some (name, parent, t0) ->
          Hashtbl.replace closed id { name; parent; ms = (t -. t0) *. 1000. }
        | None -> ())
      | _ -> ())
    events;
  closed

(* Sum and count of the spans named in [names] that have no ancestor named
   in [names] (so recursive spans are not counted twice). *)
let outermost tbl names =
  let rec nested parent =
    match Hashtbl.find_opt tbl parent with
    | None -> false
    | Some s -> List.mem s.name names || nested s.parent
  in
  Hashtbl.fold
    (fun _ s (sum, n) ->
      if List.mem s.name names && not (nested s.parent) then (sum +. s.ms, n + 1)
      else (sum, n))
    tbl (0., 0)

(* Self time of the spans named [name]: each one's duration minus what
   its direct children cover. *)
let self_ms tbl name =
  let children = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ s -> Hashtbl.replace children s.parent (s.ms +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    tbl;
  Hashtbl.fold
    (fun id s (sum, n) ->
      if s.name = name then
        (sum +. s.ms -. Option.value ~default:0. (Hashtbl.find_opt children id), n + 1)
      else (sum, n))
    tbl (0., 0)

(* [per_request st] is this request's value of every per-layer metric the
   request exercised, as (metric, value). *)
let per_request st =
  let tbl = spans st.events in
  let counter k =
    match st.counters with
    | None -> 0
    | Some snap ->
      Option.value ~default:0
        (List.assoc_opt k (snap.Obs.Metrics.counters @ snap.Obs.Metrics.gauges))
  in
  let ratio a b = if a + b = 0 then [] else [ float_of_int a /. float_of_int (a + b) ] in
  let span_metric metric names =
    match outermost tbl names with
    | _, 0 -> []
    | sum, _ -> [ (metric, sum) ]
  in
  let valency_ms = outermost tbl [ "valency.search" ] |> fst in
  let explore_ms = outermost tbl [ "explore.vector" ] |> fst in
  let nodes = counter "valency.nodes_expanded" and configs = counter "explore.configs_explored" in
  List.concat
    [
      [
        ("frame.parse_us", st.frame_us);
        ("request.decode_us", st.decode_us);
        ("dispatch.route_us", st.route_us);
      ];
      (if st.provenance = "recovered" then [ ("dispatch.route_recovered_us", st.route_us) ]
       else []);
      (match st.pool with
       | None -> []
       | Some (wait, job) ->
         let self, _ = self_ms tbl "service.request" in
         [ ("pool.queue_wait_ms", wait); ("pool.job_ms", job); ("service.request_self_ms", self) ]);
      span_metric "theorem.theorem1_ms" [ "theorem1" ];
      span_metric "lemmas.lemma4_ms" [ "lemma4" ];
      (match self_ms tbl "lemma4.round" with
       | _, 0 -> []
       | sum, _ -> [ ("lemmas.lemma4_round_self_ms", sum) ]);
      span_metric "lemmas.lemma123_ms" [ "lemma1"; "lemma2"; "lemma3" ];
      span_metric "valency.search_ms" [ "valency.search" ];
      span_metric "explore.vector_ms" [ "explore.vector" ];
      (if counter "valency.searches" = 0 then []
       else
         [
           ("valency.searches", float_of_int (counter "valency.searches"));
           ("valency.nodes", float_of_int nodes);
           ("valency.peak_frontier", float_of_int (counter "valency.peak_frontier"));
         ]
         @ List.map (fun r -> ("valency.memo_hit_ratio", r))
             (ratio (counter "valency.memo_hits") (counter "valency.memo_misses"))
         @ if nodes = 0 then [] else [ ("valency.ns_per_node", valency_ms *. 1e6 /. float_of_int nodes) ]);
      (if counter "explore.vectors" = 0 then []
       else
         [
           ("explore.configs", float_of_int configs);
           ("explore.peak_frontier", float_of_int (counter "explore.peak_frontier"));
         ]
         @ List.map (fun r -> ("explore.table_hit_ratio", r))
             (ratio (counter "explore.table_hits") (counter "explore.table_misses"))
         @ if configs = 0 then [] else [ ("explore.ns_per_config", explore_ms *. 1e6 /. float_of_int configs) ]);
    ]
