(* The benchmark ledger for the served path and the engine behind it.

   Run from the repository root, after building bin/tightspace.exe:

     ledger.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                [--ledger FILE] [--chrome DIR]
     ledger.exe --compare BASE.json BASE.json ... -- NEW.json NEW.json ...

   Untraced (--trace 0), each workload starts the real daemon on its own
   witness log, drives it over TCP with closed-loop callers from one
   thread for S seconds, checks every answer and prints the end-to-end
   metrics.  Traced
   (--trace 1), it replays a prefix of the same seeded requests in process
   through each layer's public functions and prints the per-layer
   metrics.  Without --workload all four workloads run.  With one
   workload, the last line of standard output is one JSON object: correct,
   attempted, failed and the metrics BENCHMARK.json lists for the mode.
   See ledger/README.md. *)

module Json = Ts_analysis.Json
module Request = Ts_service.Request
module Dispatch = Ts_service.Dispatch
module Store = Ts_store.Store

type metric = { name : string; value : float; unit_ : string; samples : int }

type run = {
  workload : Workload.t;
  attempted : int;
  failures : string list;
  metrics : metric list;
}

let metric name unit_ value samples =
  { name; unit_; value = (if Float.is_finite value then value else 0.); samples }

(* --- rendering -------------------------------------------------------- *)

(* Every digit of a measured value survives the round trip. *)
let num f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec render ?(indent = -1) buf v =
  let nl d =
    if indent >= 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * d) ' ')
    end
  in
  let inner = if indent >= 0 then indent + 1 else -1 in
  let seq open_ close items f =
    Buffer.add_char buf open_;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        nl inner;
        f x)
      items;
    if items <> [] then nl indent;
    Buffer.add_char buf close
  in
  match v with
  | Json.Float f -> Buffer.add_string buf (num f)
  | Json.List l -> seq '[' ']' l (render ~indent:inner buf)
  | Json.Obj kvs ->
    seq '{' '}' kvs (fun (k, x) ->
        Buffer.add_string buf (Json.to_string (Json.Str k));
        Buffer.add_string buf (if indent >= 0 then ": " else ":");
        render ~indent:inner buf x)
  | scalar -> Buffer.add_string buf (Json.to_string scalar)

let to_string ?indent v =
  let buf = Buffer.create 4096 in
  render ?indent buf v;
  Buffer.contents buf

(* --- the work directory ----------------------------------------------- *)

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let copy src dst =
  let bytes = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc bytes)

let open_store ?(fsync = Store.Always) path =
  match Store.open_ ~fsync path with
  | Ok st -> st
  | Error msg -> failwith ("store " ^ path ^ ": " ^ msg)

(* The log a workload's daemon starts on, and the answers known before the
   timed phase.  The logged keys are computed in process, untimed, through
   the same dispatcher the daemon runs, written through to the log (fsync
   deferred to the close: the log's bytes are the same either way). *)
let prepare (w : Workload.t) ~dir failures =
  let path = Filename.concat dir "pristine.log" in
  let st = open_store ~fsync:Store.Never path in
  let known = Hashtbl.create (max 64 w.Workload.logged) in
  let disp = Dispatch.create ~default_deadline:30. ~store:st () in
  for k = 0 to w.Workload.logged - 1 do
    let r = w.Workload.request k in
    match Workload.envelope ~id:0 (Dispatch.handle_raw disp r) with
    | Ok ("fresh", body) -> (
      match Workload.check_body r body with
      | Ok () -> Hashtbl.replace known k body
      | Error msg -> failures := Printf.sprintf "logged key %d: %s" k msg :: !failures)
    | Ok (p, _) -> failures := Printf.sprintf "logged key %d: provenance %s" k p :: !failures
    | Error msg -> failures := Printf.sprintf "logged key %d: %s" k msg :: !failures
  done;
  let records = (Store.stats st).Store.records in
  Store.close st;
  if records <> w.Workload.logged then
    failures :=
      Printf.sprintf "log holds %d records, want %d" records w.Workload.logged :: !failures;
  (path, known)

(* The untimed warm-up: every warmed key once (a fresh answer, which
   becomes the known one), then three more passes that must hit. *)
let warm_up port (w : Workload.t) known failures =
  if w.Workload.warmed > 0 then begin
    let c = Daemon.connect port in
    for pass = 0 to 3 do
      for k = 0 to w.Workload.warmed - 1 do
        let r = { (w.Workload.request k) with id = k } in
        match Workload.envelope ~id:k (Daemon.rpc c (Workload.frame_of r)) with
        | Error msg -> failures := Printf.sprintf "warm-up key %d: %s" k msg :: !failures
        | Ok (p, body) when pass = 0 -> (
          match (p, Workload.check_body r body) with
          | "fresh", Ok () -> Hashtbl.replace known k body
          | _, Error msg -> failures := Printf.sprintf "warm-up key %d: %s" k msg :: !failures
          | p, Ok () -> failures := Printf.sprintf "warm-up key %d: provenance %s" k p :: !failures)
        | Ok (_, body) ->
          if Hashtbl.find_opt known k <> Some body then
            failures := Printf.sprintf "warm-up key %d: answer changed" k :: !failures
      done
    done;
    Daemon.close c
  end

(* Check the answers whose key had no known answer, and add them to
   [known]: one answer per key, each one correct. *)
let validate (w : Workload.t) bodies known failures =
  List.iter
    (fun (key, body) ->
      match Hashtbl.find_opt known key with
      | Some b ->
        if not (String.equal b body) then
          failures := Printf.sprintf "key %d: two different answers" key :: !failures
      | None -> (
        Hashtbl.add known key body;
        match Workload.check_body (w.Workload.request key) body with
        | Ok () -> ()
        | Error msg -> failures := Printf.sprintf "key %d: %s" key msg :: !failures))
    bodies

let check_cache (w : Workload.t) ~hits ~misses failures =
  match w.Workload.hit_ratio with
  | Some r when float_of_int hits <> r *. float_of_int (hits + misses) ->
    failures :=
      Printf.sprintf "cache hit ratio %d/%d, want %g" hits (hits + misses) r :: !failures
  | _ -> ()

(* --- untraced: the served path, end to end ---------------------------- *)

(* setup_s is the median start-up time of this many daemons, each started
   on a fresh copy of the workload's log: all but the last are stopped at
   once, the last one serves the timed phase. *)
let starts = 9

let serve_run (w : Workload.t) ~seed ~seconds ~dir =
  let failures = ref [] in
  let pristine, known = prepare w ~dir failures in
  let store = Filename.concat dir "daemon.log" and err = Filename.concat dir "daemon.err" in
  let start () =
    copy pristine store;
    Daemon.start ~store ~err
  in
  let setups =
    Array.init (starts - 1) (fun _ ->
        let d, s = start () in
        Daemon.stop d;
        s)
  in
  let d, setup_s = start () in
  warm_up d.Daemon.port w known failures;
  let h0, m0 = Daemon.cache_counters d.Daemon.port in
  let s = Daemon.drive d w ~seed ~first:0 ~count:w.Workload.limit ~seconds ~known in
  let h1, m1 = Daemon.cache_counters d.Daemon.port in
  Daemon.stop d;
  failures := s.Daemon.failures @ !failures;
  validate w s.Daemon.bodies known failures;
  let hits = h1 - h0 and lookups = h1 - h0 + m1 - m0 in
  check_cache w ~hits ~misses:(lookups - hits) failures;
  let n = Array.length s.Daemon.latencies in
  let q = Stats.at (Stats.sorted s.Daemon.latencies) in
  (* throughput and CPU per request are medians over the windows of the
     timed phase, so a stall of the host moves a few windows, not the
     result *)
  let per_window f = Stats.median (Array.map f s.Daemon.windows) in
  let windows = Array.length s.Daemon.windows and size = float_of_int w.Workload.window in
  let failed = List.length !failures in
  {
    workload = w;
    attempted = s.Daemon.attempted;
    failures = List.rev !failures;
    metrics =
      [
        metric "throughput_rps" "req/s" (per_window (fun (ms, _) -> size *. 1000. /. ms)) windows;
        metric "p50_ms" "ms" (q 0.5) n;
        metric "p90_ms" "ms" (q 0.9) n;
        metric "p99_ms" "ms" (q 0.99) n;
        metric "setup_s" "s" (Stats.median (Array.append [| setup_s |] setups)) starts;
        metric "peak_rss_mb" "MiB" s.Daemon.rss_mb 1;
        metric "daemon_cpu_ms_per_req" "ms" (per_window (fun (_, cpu) -> cpu /. size)) windows;
        metric "failed_frac" "fraction"
          (float_of_int failed /. float_of_int (max 1 s.Daemon.attempted))
          s.Daemon.attempted;
        metric "cache_hit_ratio" "ratio"
          (float_of_int hits /. float_of_int (max 1 lookups))
          lookups;
      ];
  }

(* --- traced: the per-layer split -------------------------------------- *)

let time_us f =
  let t0 = Daemon.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  Daemon.ms_between t0 (Daemon.now_ns ()) *. 1000.

let median_of_runs k f = Stats.median (Array.init k (fun _ -> time_us f))

(* Each per-layer metric's values over the traced steps: one per request
   that exercised the layer. *)
let layer_values steps =
  let per = Hashtbl.create 64 in
  Array.iter
    (fun st ->
      List.iter
        (fun (k, v) -> Hashtbl.replace per k (v :: Option.value ~default:[] (Hashtbl.find_opt per k)))
        (Replay.per_request st))
    steps;
  fun name -> Array.of_list (Option.value ~default:[] (Hashtbl.find_opt per name))

let store_layer (w : Workload.t) ~dir ~log (steps : Replay.step array) =
  let replay_us = median_of_runs 5 (fun () -> Store.close (open_store log)) in
  let st = open_store log in
  let keys = ref [] in
  Store.iter st (fun k _ -> if List.length !keys < 2000 then keys := k :: !keys);
  let finds = Array.of_list (List.map (fun k -> time_us (fun () -> Store.find st k)) !keys) in
  Store.close st;
  let append_log = Filename.concat dir "append.log" in
  let st = open_store append_log in
  let seen = Hashtbl.create 256 in
  let appends = ref [] in
  Array.iter
    (fun (s : Replay.step) ->
      if Hashtbl.length seen < 200 && not (Hashtbl.mem seen s.Replay.key) then begin
        Hashtbl.add seen s.Replay.key ();
        let key = Dispatch.cache_key (w.Workload.request s.Replay.key) in
        appends := time_us (fun () -> Store.append st ~key ~value:s.Replay.body) :: !appends
      end)
    steps;
  Store.close st;
  let appends = Array.of_list !appends in
  [
    metric "store.replay_ms" "ms" (replay_us /. 1000.) 5;
    metric "store.find_us" "us" (Stats.median finds) (Array.length finds);
    metric "store.append_us" "us" (Stats.median appends) (Array.length appends);
  ]

(* Certificate costs on the workload's certificate keys: building and
   serializing one and replaying the theorem (at most four keys, each a
   Theorem 1 run outside the timing), and micro-checking every served
   certificate. *)
let cert_layer (w : Workload.t) (steps : Replay.step array) =
  let cert_keys =
    Array.to_list steps
    |> List.filter (fun (s : Replay.step) -> (w.Workload.request s.Replay.key).Request.certificate)
  in
  let distinct = List.sort_uniq compare (List.map (fun (s : Replay.step) -> s.Replay.key) cert_keys) in
  let timed = List.filteri (fun i _ -> i < 4) distinct in
  let build, verify =
    List.map
      (fun k ->
        let r = w.Workload.request k in
        match Ts_protocols.Catalog.find r.Request.protocol ~n:r.Request.n with
        | Error msg -> failwith msg
        | Ok (Ts_model.Protocol.Packed proto) ->
          let h = Option.value ~default:(10 * r.Request.n) r.Request.horizon in
          let cert = Ts_core.Theorem.theorem1 (Ts_core.Valency.create proto ~horizon:h) in
          ( median_of_runs 5 (fun () -> Ts_cert.Cert.to_string (Ts_cert.Cert.of_theorem proto cert)),
            median_of_runs 5 (fun () -> Ts_core.Theorem.verify cert proto) ))
      timed
    |> List.split
  in
  let checks =
    List.filter_map
      (fun (s : Replay.step) ->
        match Result.map (Json.member "certificate") (Json.of_string s.Replay.body) with
        | Ok (Some c) ->
          let bytes = Json.to_string c in
          Some (time_us (fun () -> Ts_cert.Cert.microcheck_string bytes))
        | _ -> None)
      cert_keys
  in
  let med l = Stats.median (Array.of_list l) in
  [
    metric "cert.build_us" "us" (med build) (List.length build);
    metric "theorem.verify_us" "us" (med verify) (List.length verify);
    metric "cert.microcheck_us" "us" (med checks) (List.length checks);
  ]

let ping_rtt_us port =
  let c = Daemon.connect port in
  let frame = Daemon.simple_frame "ping" in
  let rtts = Array.init 2000 (fun _ -> time_us (fun () -> Daemon.rpc c frame)) in
  Daemon.close c;
  Stats.median rtts

let trace_run (w : Workload.t) ~seed ~dir ~chrome =
  (* first, while the heap is small: a replay's retained spans would slow
     every allocating row *)
  let micro = Micro.run () in
  let failures = ref [] in
  let pristine, known = prepare w ~dir failures in
  let copy_of name =
    let p = Filename.concat dir name in
    copy pristine p;
    p
  in
  (* the real daemon on the same prefix: served bytes, ping and CPU *)
  let d, _ = Daemon.start ~store:(copy_of "daemon.log") ~err:(Filename.concat dir "daemon.err") in
  let ping_us = ping_rtt_us d.Daemon.port in
  warm_up d.Daemon.port w known failures;
  let cpu0 = Daemon.cpu_ms d in
  let s = Daemon.drive d w ~seed ~first:0 ~count:w.Workload.prefix ~seconds:infinity ~known in
  let daemon_cpu = Daemon.cpu_ms d -. cpu0 in
  Daemon.stop d;
  failures := s.Daemon.failures @ !failures;
  validate w s.Daemon.bodies known failures;
  (* the same prefix in process, untraced and traced *)
  let log = copy_of "traced.log" in
  let r = Replay.run ~plain_log:(copy_of "plain.log") ~traced_log:log w ~seed in
  let steps = r.Replay.traced in
  Array.iteri
    (fun i (st : Replay.step) ->
      if Hashtbl.find_opt known st.Replay.key <> Some st.Replay.body then
        failures := Printf.sprintf "replayed request %d differs from the served answer" i :: !failures;
      if not (String.equal r.Replay.plain.(i).Replay.body st.Replay.body) then
        failures := Printf.sprintf "traced request %d differs from the untraced one" i :: !failures)
    steps;
  check_cache w ~hits:r.Replay.hits ~misses:r.Replay.misses failures;
  (match chrome with
   | None -> ()
   | Some cdir ->
     let events = Array.to_list steps |> List.concat_map (fun (st : Replay.step) -> st.Replay.events) in
     Out_channel.with_open_bin
       (Filename.concat cdir (w.Workload.name ^ ".json"))
       (fun oc -> Out_channel.output_string oc (Ts_obs.Export.chrome_trace events)));
  let values = layer_values steps in
  let per name unit_ =
    let vs = values name in
    metric name unit_ (if vs = [||] then 0. else Stats.median vs) (Array.length vs)
  in
  let total name = Array.fold_left ( +. ) 0. (values name) in
  let share name = if total "pool.job_ms" = 0. then 0. else total name /. total "pool.job_ms" in
  let lookups = r.Replay.hits + r.Replay.misses in
  let prefix = Array.length steps in
  let metrics =
    [
      per "frame.parse_us" "us";
      per "request.decode_us" "us";
      per "dispatch.route_us" "us";
      per "dispatch.route_recovered_us" "us";
      metric "cache.hit_ratio" "ratio"
        (float_of_int r.Replay.hits /. float_of_int (max 1 lookups))
        lookups;
      metric "cache.evictions" "count" (float_of_int r.Replay.evictions) prefix;
    ]
    @ store_layer w ~dir ~log steps
    @ [
        per "pool.queue_wait_ms" "ms";
        per "pool.job_ms" "ms";
        per "service.request_self_ms" "ms";
        metric "evloop.ping_rtt_us" "us" ping_us 2000;
        metric "server.cpu_ratio" "ratio"
          (daemon_cpu /. float_of_int (max 1 s.Daemon.attempted)
          /. (r.Replay.plain_cpu_ms /. float_of_int prefix))
          prefix;
        per "theorem.theorem1_ms" "ms";
        per "lemmas.lemma4_ms" "ms";
        per "lemmas.lemma4_round_self_ms" "ms";
        per "lemmas.lemma123_ms" "ms";
        per "valency.search_ms" "ms";
        per "valency.searches" "count";
        per "valency.nodes" "count";
        per "valency.memo_hit_ratio" "ratio";
        per "valency.ns_per_node" "ns";
        per "valency.peak_frontier" "count";
        metric "valency.job_share" "ratio" (share "valency.search_ms") prefix;
        per "explore.vector_ms" "ms";
        per "explore.configs" "count";
        per "explore.ns_per_config" "ns";
        per "explore.table_hit_ratio" "ratio";
        per "explore.peak_frontier" "count";
        metric "explore.job_share" "ratio" (share "explore.vector_ms") prefix;
      ]
    @ cert_layer w steps
    @ List.map (fun (name, unit_, v) -> metric name unit_ v 1) micro
    @ [
        metric "trace.overhead_frac" "fraction"
          ((r.Replay.traced_ms /. r.Replay.plain_ms) -. 1.)
          prefix;
      ]
  in
  { workload = w; attempted = s.Daemon.attempted; failures = List.rev !failures; metrics }

(* --- output ----------------------------------------------------------- *)

let print_run r =
  Printf.printf "%s: %s, %d attempted, %d failed\n" r.workload.Workload.name
    (if r.failures = [] then "correct" else "INCORRECT")
    r.attempted (List.length r.failures);
  List.iteri (fun i f -> if i < 10 then Printf.printf "  failure: %s\n" f) r.failures;
  List.iter
    (fun m -> Printf.printf "  %-32s %16.6f %-9s n=%d\n" m.name m.value m.unit_ m.samples)
    r.metrics;
  flush stdout

let run_json r =
  Json.Obj
    [
      ("name", Json.Str r.workload.Workload.name);
      ("why", Json.Str r.workload.Workload.why);
      ("correct", Json.Bool (r.failures = []));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int (List.length r.failures));
      ("failures", Json.List (List.filteri (fun i _ -> i < 20) r.failures |> List.map (fun f -> Json.Str f)));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_); ("samples", Json.Int m.samples) ] ))
             r.metrics) );
    ]

let first_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let l = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    l

let host_json () =
  let cpu =
    try
      In_channel.with_open_bin "/proc/cpuinfo" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.starts_with ~prefix:"model name" l ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)
      |> Option.value ~default:"unknown"
    with Sys_error _ -> "unknown"
  in
  Json.Obj
    [
      ("cores", Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Json.Str cpu);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_sha", Json.Str (first_line "git rev-parse HEAD 2>/dev/null"));
      ("kernel", Json.Str (first_line "uname -r 2>/dev/null"));
    ]

let write_ledger file ~seed ~seconds ~traced runs =
  let doc =
    Json.Obj
      [
        ("ledger_version", Json.Int 1);
        ("host", host_json ());
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("trace", Json.Bool traced);
        ( "daemon",
          Json.Str (String.concat " " ((Daemon.exe :: Daemon.flags) @ [ "--store"; "<work>/daemon.log" ])) );
        ( "load",
          Json.Str
            "one thread, closed loop: 1 connection on the miss workloads, 2 on hit-warm and \
             restart-mixed, one request in flight on each" );
        ("workloads", Json.List (List.map run_json runs));
      ]
  in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc (to_string ~indent:0 doc);
      Out_channel.output_char oc '\n')

(* The last line of a one-workload run: exactly the metrics BENCHMARK.json
   lists for the mode. *)
let result_line (spec : Spec.t) ~traced r =
  let wanted = if traced then spec.Spec.per_layer else spec.Spec.end_to_end in
  let find name = List.find_opt (fun m -> m.name = name) r.metrics in
  Json.Obj
    [
      ("correct", Json.Bool (r.failures = []));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int (List.length r.failures));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Spec.metric) ->
               match find m.Spec.name with
               | Some x -> (m.Spec.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str m.Spec.unit_) ])
               | None -> failwith ("BENCHMARK.json names a metric the ledger does not measure: " ^ m.Spec.name))
             wanted) );
    ]

(* --- command line ----------------------------------------------------- *)

let split_compare args =
  let rec go acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> go (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  go [] args

let () =
  match Array.to_list Sys.argv with
  | _ :: "--compare" :: rest ->
    let base, fresh = split_compare rest in
    exit (Compare.run (Spec.load "BENCHMARK.json") ~base ~fresh)
  | _ ->
    (* a larger minor heap: fewer minor collections landing inside a timed
       round trip, and fewer stops of the traced replay's pool domains *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
    let workload = ref None and seed = ref 2026 and seconds = ref 25. and trace = ref 0 in
    let ledger = ref None and chrome = ref None in
    Arg.parse
      [
        ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload (default: all four)");
        ("--seed", Arg.Set_int seed, "N seed of the request sequences (default 2026)");
        ("--seconds", Arg.Set_float seconds, "S length of each timed phase (default 25)");
        ("--trace", Arg.Set_int trace, "0|1 0: end-to-end run; 1: traced per-layer run");
        ("--ledger", Arg.String (fun f -> ledger := Some f), "FILE also write the ledger JSON to FILE");
        ("--chrome", Arg.String (fun d -> chrome := Some d), "DIR traced runs write a Chrome trace per workload to DIR");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "ledger.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--ledger FILE] [--chrome DIR]\n\
       ledger.exe --compare BASE.json BASE.json ... -- NEW.json NEW.json ...";
    let spec = Spec.load "BENCHMARK.json" in
    let workloads =
      match !workload with
      | None -> Workload.all
      | Some name -> (
        match Workload.find name with
        | Some w -> [ w ]
        | None ->
          prerr_endline ("ledger: unknown workload " ^ name);
          exit 2)
    in
    if not (Sys.file_exists Daemon.exe) then begin
      prerr_endline ("ledger: " ^ Daemon.exe ^ " is not built; run from the repository root");
      exit 2
    end;
    let traced = !trace = 1 in
    let root = Filename.concat "ledger/_work" (string_of_int (Unix.getpid ())) in
    at_exit (fun () -> remove root);
    let runs =
      List.map
        (fun (w : Workload.t) ->
          let dir = Filename.concat root w.Workload.name in
          if not (Sys.file_exists "ledger/_work") then Sys.mkdir "ledger/_work" 0o755;
          if not (Sys.file_exists root) then Sys.mkdir root 0o755;
          Sys.mkdir dir 0o755;
          let r =
            if traced then trace_run w ~seed:!seed ~dir ~chrome:!chrome
            else serve_run w ~seed:!seed ~seconds:!seconds ~dir
          in
          print_run r;
          r)
        workloads
    in
    Option.iter (fun f -> write_ledger f ~seed:!seed ~seconds:!seconds ~traced runs) !ledger;
    match runs with
    | [ r ] -> print_endline (to_string (result_line spec ~traced r))
    | _ ->
      Printf.printf "ledger: %s\n"
        (if List.for_all (fun r -> r.failures = []) runs then "every workload correct"
         else "INCORRECT answers, see above")
