(* Load generator for the ts_service daemon (experiment E22).

   Starts an in-process server on an ephemeral port backed by a fresh
   witness store, then drives it over real TCP through three phases:

     cold           every distinct query once, cache and store empty —
                    each answer is a fresh engine run
     warm           the same queries repeated from [clients] concurrent
                    connections against the warm in-memory cache
     restart-warm   the server is stopped and a new one opened on the
                    same store file — previously-seen queries are served
                    from disk ("recovered") and then from memory

   Each warm phase takes two measurements, because they bound different
   things:

     latency    synchronous request/response round trips, >= 1k samples
                by default, reported as p50/p90/p99/max
     throughput pipelined batches over raw sockets with a buffered frame
                scanner, time-boxed — measures the event loop's ceiling,
                not the client's syscall overhead

   The differential guarantee is checked explicitly: the "result" bytes
   of fresh, cached and recovered responses to the same query must be
   identical, and the run fails loudly if not.  --json FILE writes
   BENCH_PR6.json with all sections. *)

module Json = Ts_analysis.Json
module Server = Ts_service.Server
module Client = Ts_service.Client
module Request = Ts_service.Request
module Frame = Ts_service.Frame

(* BENCH_PR5's warm throughput: the baseline the tentpole is gated on *)
let pr5_warm_rps = 14_200.
let warm_rps_bar = 70_000.

let base_queries =
  let base = Request.defaults in
  [
    { base with Request.op = Request.Witness; protocol = "racing"; n = 2 };
    { base with Request.op = Request.Witness; protocol = "racing"; n = 3 };
    { base with Request.op = Request.Witness; protocol = "swap"; n = 2 };
    { base with Request.op = Request.Check; protocol = "broken-lww"; n = 2 };
    { base with Request.op = Request.Check; protocol = "broken-max"; n = 2 };
    { base with Request.op = Request.Check; protocol = "racing"; n = 2;
                max_configs = 20_000 };
    { base with Request.op = Request.Valency; protocol = "racing"; n = 2 };
    { base with Request.op = Request.Valency; protocol = "racing"; n = 3 };
  ]

(* --mix N: first N base queries; beyond 8, seed variants (the seed is
   cache-key material, so each variant is a distinct cache entry) *)
let make_queries mix =
  List.init mix (fun i ->
      let q = List.nth base_queries (i mod List.length base_queries) in
      { q with Request.seed = q.Request.seed + (i / List.length base_queries) })

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float ((float_of_int (n - 1) *. p) +. 0.5)))

type latency_stats = {
  samples : int;
  elapsed : float;
  p50 : float;  (* milliseconds *)
  p90 : float;
  p99 : float;
  max : float;
}

let latency_stats latencies elapsed =
  let sorted = Array.of_list latencies in
  Array.sort compare sorted;
  {
    samples = Array.length sorted;
    elapsed;
    p50 = percentile sorted 0.5;
    p90 = percentile sorted 0.9;
    p99 = percentile sorted 0.99;
    max = (if Array.length sorted = 0 then 0. else sorted.(Array.length sorted - 1));
  }

let pp_latency name s =
  Format.printf
    "  %-12s %6d samples in %6.2fs  p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  max %8.3fms@."
    name s.samples s.elapsed s.p50 s.p90 s.p99 s.max

let latency_json s =
  Json.Obj
    [
      ("samples", Json.Int s.samples);
      ("elapsed_s", Json.Float s.elapsed);
      ("p50_ms", Json.Float s.p50);
      ("p90_ms", Json.Float s.p90);
      ("p99_ms", Json.Float s.p99);
      ("max_ms", Json.Float s.max);
    ]

(* One timed request over an open connection; the response must be ok. *)
let timed_rpc conn req =
  let t0 = Unix.gettimeofday () in
  match Client.rpc conn (Request.to_json req) with
  | Error msg -> failwith ("loadgen: rpc failed: " ^ msg)
  | Ok doc ->
    (match Json.member "ok" doc with
     | Some (Json.Bool true) -> ()
     | _ -> failwith ("loadgen: error response: " ^ Json.to_string doc));
    (Unix.gettimeofday () -. t0) *. 1000.

(* A sync pass capturing the "provenance" and "result" of each query —
   the differential material. *)
let provenance_pass port queries =
  let conn = Client.connect_exn ~port () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  List.map
    (fun q ->
      match Client.rpc conn (Request.to_json q) with
      | Error msg -> failwith ("loadgen: rpc failed: " ^ msg)
      | Ok doc ->
        let prov =
          match Json.member "provenance" doc with
          | Some (Json.Str s) -> s
          | _ -> "?"
        in
        let body =
          match Json.member "result" doc with
          | Some r -> Json.to_string r
          | None -> failwith ("loadgen: no result: " ^ Json.to_string doc)
        in
        (prov, body))
    queries

let run_cold port queries =
  let conn = Client.connect_exn ~port () in
  let t0 = Unix.gettimeofday () in
  let lats = List.map (fun q -> timed_rpc conn q) queries in
  let elapsed = Unix.gettimeofday () -. t0 in
  Client.close conn;
  latency_stats lats elapsed

(* [clients] domains, each its own TCP connection, each sending [rounds]
   synchronous passes over the query mix. *)
let run_latency port queries ~clients ~rounds =
  let t0 = Unix.gettimeofday () in
  let workers =
    Array.init clients (fun _ ->
        Domain.spawn (fun () ->
            let conn = Client.connect_exn ~port () in
            let lats = ref [] in
            for _ = 1 to rounds do
              List.iter (fun q -> lats := timed_rpc conn q :: !lats) queries
            done;
            Client.close conn;
            !lats))
  in
  let lats = Array.to_list workers |> List.concat_map Domain.join in
  let elapsed = Unix.gettimeofday () -. t0 in
  latency_stats lats elapsed

(* ---- pipelined throughput ---------------------------------------------- *)

type throughput_stats = {
  tput_requests : int;
  tput_elapsed : float;
  rps : float;
}

let frame_of req =
  let s = Json.to_string (Request.to_json req) in
  string_of_int (String.length s) ^ "\n" ^ s

(* Drain [expect] response frames from [fd] using a buffered incremental
   scan — no per-response JSON parsing, no byte-at-a-time header reads.
   Each response is spot-checked for the "ok":true marker. *)
let drain_responses fd rbuf rpos rlen expect =
  let remaining = ref expect in
  while !remaining > 0 do
    (match Frame.parse rbuf ~pos:!rpos ~len:!rlen with
     | `Frame (off, n) ->
       (* "id" then "ok" lead the envelope; 24 bytes cover both *)
       let head = Bytes.sub_string rbuf off (min n 24) in
       let ok =
         let rec find i =
           i + 9 <= String.length head
           && (String.sub head i 9 = "\"ok\":true" || find (i + 1))
         in
         find 0
       in
       if not ok then
         failwith ("loadgen: pipelined response not ok: " ^ head);
       rpos := off + n;
       decr remaining
     | `Error e -> failwith ("loadgen: response stream: " ^ Frame.error_to_string e)
     | `Need_more ->
       (* slide the consumed prefix out, then refill *)
       if !rpos > 0 then begin
         Bytes.blit rbuf !rpos rbuf 0 (!rlen - !rpos);
         rlen := !rlen - !rpos;
         rpos := 0
       end;
       let k = Unix.read fd rbuf !rlen (Bytes.length rbuf - !rlen) in
       if k = 0 then failwith "loadgen: server closed mid-batch";
       rlen := !rlen + k)
  done

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* Each client connection writes whole batches of pre-serialized frames
   and drains the batched answers, for [seconds] of wall clock. *)
let run_throughput port queries ~clients ~seconds =
  let mix = List.length queries in
  let depth = max 1 (256 / mix) in
  let batch =
    String.concat ""
      (List.concat (List.init depth (fun _ -> List.map frame_of queries)))
  in
  let per_batch = depth * mix in
  let t0 = Unix.gettimeofday () in
  let workers =
    Array.init clients (fun _ ->
        Domain.spawn (fun () ->
            let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            let rbuf = Bytes.create (1 lsl 20) in
            let rpos = ref 0 and rlen = ref 0 in
            let count = ref 0 in
            let deadline = Unix.gettimeofday () +. seconds in
            while Unix.gettimeofday () < deadline do
              write_all fd batch;
              drain_responses fd rbuf rpos rlen per_batch;
              count := !count + per_batch
            done;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            !count))
  in
  let requests = Array.fold_left (fun acc d -> acc + Domain.join d) 0 workers in
  let elapsed = Unix.gettimeofday () -. t0 in
  {
    tput_requests = requests;
    tput_elapsed = elapsed;
    rps = float_of_int requests /. elapsed;
  }

let pp_throughput name s =
  Format.printf "  %-12s %7d pipelined requests in %6.2fs  (%9.1f req/s)@." name
    s.tput_requests s.tput_elapsed s.rps

(* ---- chaos mode (experiment E23) --------------------------------------- *)

module Chaos = Ts_service.Chaos

(* Aggregated resilient-client counters across the worker domains. *)
let sum_client_stats stats_list =
  List.fold_left
    (fun acc (s : Client.stats) ->
      {
        Client.calls = acc.Client.calls + s.Client.calls;
        attempts_made = acc.Client.attempts_made + s.Client.attempts_made;
        retries = acc.Client.retries + s.Client.retries;
        reconnects = acc.Client.reconnects + s.Client.reconnects;
        timeouts = acc.Client.timeouts + s.Client.timeouts;
        conn_resets = acc.Client.conn_resets + s.Client.conn_resets;
        parse_errors = acc.Client.parse_errors + s.Client.parse_errors;
        connect_errors = acc.Client.connect_errors + s.Client.connect_errors;
        server_busy = acc.Client.server_busy + s.Client.server_busy;
        retry_after_honored =
          acc.Client.retry_after_honored + s.Client.retry_after_honored;
        breaker_opens = acc.Client.breaker_opens + s.Client.breaker_opens;
      })
    {
      Client.calls = 0; attempts_made = 0; retries = 0; reconnects = 0;
      timeouts = 0; conn_resets = 0; parse_errors = 0; connect_errors = 0;
      server_busy = 0; retry_after_honored = 0; breaker_opens = 0;
    }
    stats_list

(* Drive the query mix through the chaos proxy with resilient clients and
   demand 100% eventual success with answers byte-identical to a
   fault-free baseline.  The proxy may reset, truncate, corrupt, delay
   and throttle; the retry layer must absorb all of it. *)
let chaos_main ~clients ~rounds ~mix ~seed ~fault_prob ~class_spec ~json_file =
  let queries = make_queries mix in
  let classes =
    match Chaos.classes_of_string class_spec with
    | Ok c -> c
    | Error msg ->
      prerr_endline ("loadgen: --chaos-classes: " ^ msg);
      exit 2
  in
  let store_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tightspace-chaos-%d.log" (Unix.getpid ()))
  in
  (try Sys.remove store_path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove store_path with Sys_error _ -> ())
  @@ fun () ->
  let config =
    {
      Server.default_config with
      port = 0;
      workers = clients;
      store_path = Some store_path;
    }
  in
  let server = Server.start config in
  let port = Server.port server in
  (* fault-free baseline over a direct connection: the reference bodies
     every answer delivered through the proxy must match byte for byte *)
  let baseline = Array.of_list (List.map snd (provenance_pass port queries)) in
  let proxy =
    Chaos.start
      { (Chaos.default_config ~upstream_port:port) with seed; fault_prob; classes }
  in
  let pport = Chaos.port proxy in
  Format.printf
    "loadgen --chaos: daemon on 127.0.0.1:%d behind chaos proxy on :%d (seed \
     %d, fault-prob %.2f, classes %s)@."
    port pport seed fault_prob
    (Chaos.classes_to_string classes);
  let t0 = Unix.gettimeofday () in
  let workers =
    Array.init clients (fun w ->
        Domain.spawn (fun () ->
            (* generous attempt budget: a call may only fail once the
               whole budget is spent, and chaos CI demands zero of those *)
            let policy =
              {
                Client.default_policy with
                attempts = 12;
                seed = seed + (7919 * (w + 1));
              }
            in
            let cl = Client.make ~policy ~port:pport () in
            let ok = ref 0 and failed = ref 0 and mismatched = ref 0 in
            let lats = ref [] in
            for _ = 1 to rounds do
              List.iteri
                (fun i q ->
                  let c0 = Unix.gettimeofday () in
                  (match Client.call cl (Request.to_json q) with
                   | Error _ -> incr failed
                   | Ok doc -> (
                     match (Json.member "ok" doc, Json.member "result" doc) with
                     | Some (Json.Bool true), Some r
                       when Json.to_string r = baseline.(i) ->
                       incr ok
                     | Some (Json.Bool true), _ -> incr mismatched
                     | _ -> incr failed));
                  (* call latency includes every retry and backoff sleep:
                     the price of eventual success, not of one attempt *)
                  lats := ((Unix.gettimeofday () -. c0) *. 1000.) :: !lats)
                queries
            done;
            let stats = Client.stats cl in
            Client.shutdown cl;
            (!ok, !failed, !mismatched, stats, !lats)))
  in
  let per_worker = Array.to_list workers |> List.map Domain.join in
  let elapsed = Unix.gettimeofday () -. t0 in
  Chaos.stop proxy;
  let pstats = Chaos.stats proxy in
  let events = Chaos.events proxy in
  Server.stop server;
  let ok = List.fold_left (fun a (k, _, _, _, _) -> a + k) 0 per_worker in
  let failed = List.fold_left (fun a (_, k, _, _, _) -> a + k) 0 per_worker in
  let mismatched =
    List.fold_left (fun a (_, _, k, _, _) -> a + k) 0 per_worker
  in
  let cs = sum_client_stats (List.map (fun (_, _, _, s, _) -> s) per_worker) in
  let lat =
    latency_stats
      (List.concat_map (fun (_, _, _, _, l) -> l) per_worker)
      elapsed
  in
  let calls = ok + failed + mismatched in
  let success_rate =
    if calls = 0 then 0. else 100. *. float_of_int ok /. float_of_int calls
  in
  Format.printf
    "  %d calls from %d clients in %.2fs: %d ok, %d failed, %d mismatched \
     (eventual success %.2f%%)@."
    calls clients elapsed ok failed mismatched success_rate;
  Format.printf
    "  client: %d attempts, %d retries, %d reconnects (resets %d, timeouts \
     %d, parse %d, connect %d, busy %d, retry-after honored %d, breaker \
     opens %d)@."
    cs.Client.attempts_made cs.Client.retries cs.Client.reconnects
    cs.Client.conn_resets cs.Client.timeouts cs.Client.parse_errors
    cs.Client.connect_errors cs.Client.server_busy
    cs.Client.retry_after_honored cs.Client.breaker_opens;
  pp_latency "chaos" lat;
  Format.printf "  proxy: %a@." Chaos.pp_stats pstats;
  List.iteri
    (fun i e -> if i < 3 then Format.printf "    e.g. %s@." e)
    events;
  (match json_file with
   | None -> ()
   | Some file ->
     let doc =
       Json.Obj
         [
           ("harness", Json.Str "tightspace-loadgen");
           ("experiment",
            Json.Str
              "E23 chaos: resilient client through a fault-injecting proxy");
           ("seed", Json.Int seed);
           ("fault_prob", Json.Float fault_prob);
           ("classes", Json.Str (Chaos.classes_to_string classes));
           ("clients", Json.Int clients);
           ("rounds", Json.Int rounds);
           ("query_mix", Json.Int (List.length queries));
           ("elapsed_s", Json.Float elapsed);
           ("calls", Json.Int calls);
           ("ok", Json.Int ok);
           ("failed", Json.Int failed);
           ("mismatched", Json.Int mismatched);
           ("eventual_success_pct", Json.Float success_rate);
           ("latency", latency_json lat);
           ("client",
            Json.Obj
              [
                ("attempts", Json.Int cs.Client.attempts_made);
                ("retries", Json.Int cs.Client.retries);
                ("reconnects", Json.Int cs.Client.reconnects);
                ("timeouts", Json.Int cs.Client.timeouts);
                ("conn_resets", Json.Int cs.Client.conn_resets);
                ("parse_errors", Json.Int cs.Client.parse_errors);
                ("connect_errors", Json.Int cs.Client.connect_errors);
                ("server_busy", Json.Int cs.Client.server_busy);
                ("retry_after_honored", Json.Int cs.Client.retry_after_honored);
                ("breaker_opens", Json.Int cs.Client.breaker_opens);
              ]);
           ("proxy",
            Json.Obj
              [
                ("connections", Json.Int pstats.Chaos.connections);
                ("faulted", Json.Int pstats.Chaos.faulted);
                ("resets", Json.Int pstats.Chaos.resets);
                ("truncations", Json.Int pstats.Chaos.truncations);
                ("corruptions", Json.Int pstats.Chaos.corruptions);
                ("delayed_chunks", Json.Int pstats.Chaos.delayed_chunks);
                ("throttled_chunks", Json.Int pstats.Chaos.throttled_chunks);
                ("bytes_up", Json.Int pstats.Chaos.bytes_up);
                ("bytes_down", Json.Int pstats.Chaos.bytes_down);
              ]);
         ]
     in
     let oc = open_out file in
     output_string oc (Json.to_string_pretty doc);
     output_char oc '\n';
     close_out oc;
     Format.printf "wrote %s@." file);
  if failed = 0 && mismatched = 0 && calls = clients * rounds * List.length queries
  then begin
    Format.printf
      "  chaos: 100%% eventual success, answers byte-identical to the \
       fault-free run@.";
    exit 0
  end
  else begin
    Format.printf
      "FAIL: chaos run did not reach 100%% eventual success with identical \
       answers (replay with --chaos-seed %d)@."
      seed;
    exit 1
  end

(* ---- reporting --------------------------------------------------------- *)

let throughput_json s =
  Json.Obj
    [
      ("requests", Json.Int s.tput_requests);
      ("elapsed_s", Json.Float s.tput_elapsed);
      ("throughput_rps", Json.Float s.rps);
    ]

let () =
  let json_file = ref None in
  let clients = ref 4 in
  let rounds = ref 40 in
  let mix = ref (List.length base_queries) in
  let seconds = ref 1.0 in
  let chaos = ref false in
  let chaos_seed = ref 2026 in
  let chaos_fault_prob = ref 0.6 in
  let chaos_classes = ref "all" in
  Arg.parse
    [
      ("--json", Arg.String (fun f -> json_file := Some f), "FILE write results JSON");
      ("--clients", Arg.Set_int clients, "N concurrent client domains (default 4)");
      ("--rounds", Arg.Set_int rounds, "N latency passes per client (default 40)");
      ("--mix", Arg.Set_int mix,
       "N distinct queries in the mix (default 8; beyond 8 adds seed variants)");
      ("--tput-seconds", Arg.Set_float seconds,
       "S wall-clock budget per pipelined throughput pass (default 1.0)");
      ("--chaos", Arg.Set chaos,
       " drive the mix through a fault-injecting proxy with resilient \
        clients instead of the perf phases; fails unless every call \
        eventually succeeds byte-identically");
      ("--chaos-seed", Arg.Set_int chaos_seed,
       "SEED master seed for the fault schedule (default 2026)");
      ("--chaos-fault-prob", Arg.Set_float chaos_fault_prob,
       "P probability a connection draws a faulty plan (default 0.6)");
      ("--chaos-classes", Arg.Set_string chaos_classes,
       "SPEC fault classes: reset,truncate,corrupt,delay,throttle or all/none");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen [--json FILE] [--clients N] [--rounds N] [--mix N] [--tput-seconds S] [--chaos]";
  if !chaos then
    chaos_main ~clients:!clients ~rounds:!rounds ~mix:!mix ~seed:!chaos_seed
      ~fault_prob:!chaos_fault_prob ~class_spec:!chaos_classes
      ~json_file:!json_file;
  let queries = make_queries !mix in
  let store_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tightspace-loadgen-%d.log" (Unix.getpid ()))
  in
  (try Sys.remove store_path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove store_path with Sys_error _ -> ())
  @@ fun () ->
  Ts_obs.Obs.Metrics.start ();
  let config =
    {
      Server.default_config with
      port = 0;
      workers = !clients;
      store_path = Some store_path;
    }
  in
  let server = Server.start config in
  let port = Server.port server in
  Format.printf
    "loadgen: daemon on 127.0.0.1:%d, %d queries in the mix, store %s@." port
    (List.length queries) store_path;

  (* phase 1: cold — every answer a fresh engine run, persisted *)
  let cold = run_cold port queries in
  pp_latency "cold" cold;
  let fresh_bodies = List.map snd (provenance_pass port queries) in

  (* phase 2: warm in-memory *)
  let warm = run_latency port queries ~clients:!clients ~rounds:!rounds in
  pp_latency "warm" warm;
  let cached = provenance_pass port queries in
  let cached_identical =
    List.for_all2
      (fun fresh (prov, body) -> prov = "cached" && body = fresh)
      fresh_bodies cached
  in
  let warm_tput = run_throughput port queries ~clients:!clients ~seconds:!seconds in
  pp_throughput "warm" warm_tput;
  let cache = Ts_service.Dispatch.cache_stats (Server.dispatcher server) in
  Server.stop server;

  (* phase 3a: a restart serves every seen query from disk, byte-identical *)
  let server = Server.start config in
  let recovered = provenance_pass (Server.port server) queries in
  let recovered_identical =
    List.for_all2
      (fun fresh (prov, body) -> prov = "recovered" && body = fresh)
      fresh_bodies recovered
  in
  Server.stop server;

  (* phase 3b: restart-warm measurement on one more fresh process image —
     the latency pass's first touches hit the disk tier, the rest the
     re-warmed memory tier, which is exactly what a restarted daemon's
     clients experience *)
  let server = Server.start config in
  let rport = Server.port server in
  let restart_warm = run_latency rport queries ~clients:!clients ~rounds:!rounds in
  pp_latency "restart-warm" restart_warm;
  let restart_tput = run_throughput rport queries ~clients:!clients ~seconds:!seconds in
  pp_throughput "restart-warm" restart_tput;
  let store_stats = Ts_service.Dispatch.store_stats (Server.dispatcher server) in
  Server.stop server;
  let metrics = Ts_obs.Obs.Metrics.stop () in

  let differential_ok = cached_identical && recovered_identical in
  Format.printf
    "  differential: cached %s, recovered %s (over %d queries)@."
    (if cached_identical then "identical" else "MISMATCH")
    (if recovered_identical then "identical" else "MISMATCH")
    (List.length queries);
  let p50_ratio =
    restart_warm.p50 /. (if warm.p50 > 0. then warm.p50 else epsilon_float)
  in
  Format.printf
    "  warm %7.0f req/s (%.1fx PR5 baseline);  restart-warm p50 %.3fms = %.2fx warm p50@."
    warm_tput.rps (warm_tput.rps /. pr5_warm_rps) restart_warm.p50 p50_ratio;

  (match !json_file with
   | None -> ()
   | Some file ->
     let doc =
       Json.Obj
         [
           ("harness", Json.Str "tightspace-loadgen");
           ("experiment",
            Json.Str "E22 event-loop serving with persistent witness store");
           ("query_mix", Json.Int (List.length queries));
           ("clients", Json.Int !clients);
           ("rounds", Json.Int !rounds);
           ("baseline_pr5_warm_rps", Json.Float pr5_warm_rps);
           ("cold", latency_json cold);
           ("warm",
            Json.Obj
              [
                ("latency", latency_json warm);
                ("throughput", throughput_json warm_tput);
              ]);
           ("restart_warm",
            Json.Obj
              ([
                 ("latency", latency_json restart_warm);
                 ("throughput", throughput_json restart_tput);
                 ("p50_vs_warm", Json.Float p50_ratio);
               ]
              @
              match store_stats with
              | None -> []
              | Some st ->
                [ ("store", Ts_service.Response.store_stats_to_json st) ]));
           ("differential",
            Json.Obj
              [
                ("queries", Json.Int (List.length queries));
                ("cached_identical", Json.Bool cached_identical);
                ("recovered_identical", Json.Bool recovered_identical);
              ]);
           ("speedup_warm_rps_vs_pr5", Json.Float (warm_tput.rps /. pr5_warm_rps));
           ("cache",
            Json.Obj
              [
                ("hits", Json.Int cache.Ts_core.Cache.hits);
                ("misses", Json.Int cache.Ts_core.Cache.misses);
                ("evictions", Json.Int cache.Ts_core.Cache.evictions);
                ("entries", Json.Int cache.Ts_core.Cache.entries);
              ]);
         ]
     in
     let oc = open_out file in
     (* metrics_json is a raw blob; splice it under the bench files' usual
        versioned key rather than re-parsing it *)
     let body = Json.to_string_pretty doc in
     let body = String.sub body 0 (String.length body - 2) in
     Printf.fprintf oc "%s,\n  \"metrics_v\": %s\n}\n" body
       (Ts_obs.Export.metrics_json metrics);
     close_out oc;
     Format.printf "wrote %s@." file);

  (* the tentpole's acceptance bars *)
  let failed = ref false in
  if warm_tput.rps < warm_rps_bar then begin
    Format.printf "FAIL: warm throughput %.0f req/s below the %.0f bar@."
      warm_tput.rps warm_rps_bar;
    failed := true
  end;
  if p50_ratio > 2. then begin
    Format.printf "FAIL: restart-warm p50 %.2fx warm p50 (bar: 2x)@." p50_ratio;
    failed := true
  end;
  if not differential_ok then begin
    Format.printf "FAIL: fresh/cached/recovered responses not byte-identical@.";
    failed := true
  end;
  if !failed then exit 1
