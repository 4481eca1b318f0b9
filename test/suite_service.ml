(* The ts_service daemon: wire framing, the JSON reader, worker-pool
   scheduling, signal plumbing, and — end to end over real loopback TCP —
   the differential guarantee that a cached answer is byte-identical to a
   cold recomputation and that malformed input never kills the daemon. *)

module Json = Ts_analysis.Json
module Frame = Ts_service.Frame
module Request = Ts_service.Request
module Dispatch = Ts_service.Dispatch
module Pool = Ts_service.Pool
module Signals = Ts_service.Signals
module Server = Ts_service.Server
module Client = Ts_service.Client

(* --- framing ---------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    (fun () -> f a b)
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  List.iter
    (fun payload ->
      Frame.write a payload;
      match Frame.read b with
      | Ok got -> Alcotest.(check string) "payload survives framing" payload got
      | Error e -> Alcotest.failf "frame read failed: %s" (Frame.error_to_string e))
    [ ""; "x"; "{\"op\":\"ping\"}"; String.make 70_000 'j'; "trailing\n" ]

let read_error fd =
  match Frame.read fd with
  | Ok _ -> Alcotest.fail "expected a framing error"
  | Error e -> e

let test_frame_errors () =
  with_socketpair (fun a b ->
      Unix.close a;
      match read_error b with
      | Frame.Eof -> ()
      | e -> Alcotest.failf "expected Eof, got %s" (Frame.error_to_string e));
  with_socketpair (fun a b ->
      let junk = "notanumber\n" in
      ignore (Unix.write_substring a junk 0 (String.length junk));
      match read_error b with
      | Frame.Bad_length _ -> ()
      | e -> Alcotest.failf "expected Bad_length, got %s" (Frame.error_to_string e));
  with_socketpair (fun a b ->
      let claim = string_of_int (Frame.max_frame_bytes + 1) ^ "\n" in
      ignore (Unix.write_substring a claim 0 (String.length claim));
      match read_error b with
      | Frame.Too_large _ -> ()
      | e -> Alcotest.failf "expected Too_large, got %s" (Frame.error_to_string e));
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "10\nabc" 0 6);
      Unix.close a;
      match read_error b with
      | Frame.Truncated short -> Alcotest.(check int) "bytes short" 7 short
      | e -> Alcotest.failf "expected Truncated, got %s" (Frame.error_to_string e))

let test_frame_parse_incremental () =
  (* the event loop's half: one frame delivered a few bytes at a time *)
  let payload = "{\"op\":\"ping\"}" in
  let wire = string_of_int (String.length payload) ^ "\n" ^ payload in
  let buf = Bytes.create 64 in
  let fed = ref 0 in
  let result = ref None in
  while !result = None && !fed < String.length wire do
    Bytes.blit_string wire !fed buf !fed 1;
    incr fed;
    match Frame.parse buf ~pos:0 ~len:!fed with
    | `Need_more -> ()
    | `Frame (off, n) -> result := Some (Bytes.sub_string buf off n)
    | `Error e -> Alcotest.failf "unexpected error: %s" (Frame.error_to_string e)
  done;
  Alcotest.(check (option string)) "payload found exactly at the last byte"
    (Some payload) !result;
  Alcotest.(check int) "and not a byte earlier" (String.length wire) !fed;
  (* two pipelined frames parse back-to-back from one buffer *)
  let two = wire ^ wire in
  let b = Bytes.of_string two in
  (match Frame.parse b ~pos:0 ~len:(String.length two) with
   | `Frame (off, n) -> (
     Alcotest.(check string) "first frame" payload (Bytes.sub_string b off n);
     match Frame.parse b ~pos:(off + n) ~len:(String.length two) with
     | `Frame (off2, n2) ->
       Alcotest.(check string) "second frame" payload (Bytes.sub_string b off2 n2)
     | _ -> Alcotest.fail "second frame not found")
   | _ -> Alcotest.fail "first frame not found");
  (* grammar errors surface as errors, not hangs *)
  (match Frame.parse (Bytes.of_string "notanumber\n") ~pos:0 ~len:11 with
   | `Error (Frame.Bad_length _) -> ()
   | _ -> Alcotest.fail "expected Bad_length");
  let oversize = string_of_int (Frame.max_frame_bytes + 1) ^ "\n" in
  match
    Frame.parse (Bytes.of_string oversize) ~pos:0 ~len:(String.length oversize)
  with
  | `Error (Frame.Too_large _) -> ()
  | _ -> Alcotest.fail "expected Too_large"

(* --- the JSON reader --------------------------------------------------- *)

let test_json_parse () =
  let ok s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e in
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "int" true (ok " -42 " = Json.Int (-42));
  Alcotest.(check bool) "float" true (ok "2.5e1" = Json.Float 25.);
  Alcotest.(check bool) "string escapes" true
    (ok {|"a\"b\\c\nA😀"|} = Json.Str "a\"b\\c\nA\xf0\x9f\x98\x80");
  Alcotest.(check bool) "nested" true
    (ok {|{"a":[1,true,null],"b":{"c":"d"}}|}
     = Json.Obj
         [ ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
           ("b", Json.Obj [ ("c", Json.Str "d") ]) ]);
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "expected parse error on %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "nul"; "\"unterminated"; "1 2"; "{\"a\":}"; "07" ]

let test_json_roundtrip_emitter () =
  (* parsing what the emitter printed must reproduce the value *)
  let docs =
    [
      Json.Obj
        [ ("id", Json.Int 3); ("ok", Json.Bool true);
          ("xs", Json.List [ Json.Null; Json.Str "a b\n\"c\""; Json.Float 1.5 ]) ];
      Json.List []; Json.Obj []; Json.Str "\x01\x1f backslash \\";
    ]
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "compact round trip" true (Json.of_string (Json.to_string d) = Ok d);
      Alcotest.(check bool) "pretty round trip" true
        (Json.of_string (Json.to_string_pretty d) = Ok d))
    docs

let test_request_roundtrip () =
  let reqs =
    [
      Request.defaults;
      { Request.defaults with Request.op = Request.Resilient; id = 7;
        protocol = "swap"; n = 2; horizon = Some 12; t_faults = 2;
        deadline = Some 1.5; max_nodes = Some 9; check_solo = false };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "of_json (to_json r) = Ok r" true
        (Request.of_json (Request.to_json r) = Ok r))
    reqs;
  (match Request.of_json (Json.Obj [ ("op", Json.Str "transmogrify") ]) with
   | Ok _ -> Alcotest.fail "unknown op must be rejected"
   | Error _ -> ());
  (match Request.of_json (Json.Obj [ ("op", Json.Str "ping"); ("n", Json.Str "three") ]) with
   | Ok _ -> Alcotest.fail "type-mismatched field must be rejected"
   | Error _ -> ())

(* --- the worker pool --------------------------------------------------- *)

let test_pool_runs_everything () =
  let pool = Pool.create ~workers:3 ~queue_cap:64 in
  let hits = Atomic.make 0 in
  for _ = 1 to 40 do
    match Pool.submit pool (fun () -> Atomic.incr hits) with
    | Pool.Accepted -> ()
    | Pool.Overloaded | Pool.Shutting_down -> Alcotest.fail "submit refused"
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "all jobs ran before shutdown returned" 40 (Atomic.get hits)

let test_pool_backpressure_and_containment () =
  let pool = Pool.create ~workers:1 ~queue_cap:2 in
  let release = Atomic.make false in
  let submit job = Pool.submit pool job in
  (* wedge the single worker, then fill the queue *)
  ignore (submit (fun () -> while not (Atomic.get release) do Domain.cpu_relax () done));
  Unix.sleepf 0.05;
  ignore (submit (fun () -> failwith "contained"));
  ignore (submit (fun () -> ()));
  (match submit (fun () -> ()) with
   | Pool.Overloaded -> ()
   | Pool.Accepted -> Alcotest.fail "queue bound not enforced"
   | Pool.Shutting_down -> Alcotest.fail "pool not shutting down yet");
  Atomic.set release true;
  Pool.shutdown pool;
  Alcotest.(check int) "raising job contained and counted" 1 (Pool.job_errors pool);
  (match submit (fun () -> ()) with
   | Pool.Shutting_down -> ()
   | _ -> Alcotest.fail "post-shutdown submit must be refused")

(* --- signal plumbing --------------------------------------------------- *)

let test_signals_simulate () =
  Alcotest.(check bool) "nothing installed initially" false (Signals.installed ());
  let seen = ref [] in
  Signals.install ~exit_after:true ~on_signal:(fun s -> seen := s :: !seen);
  Fun.protect ~finally:Signals.uninstall (fun () ->
      Alcotest.(check bool) "installed" true (Signals.installed ());
      (* simulate runs the very callback a delivery would, but never exits
         — the fact that this test survives is half the point *)
      Signals.simulate Sys.sigint;
      Signals.simulate Sys.sigterm;
      Alcotest.(check (list int)) "callback saw both signals"
        [ Sys.sigterm; Sys.sigint ] !seen);
  Alcotest.(check bool) "uninstalled" false (Signals.installed ());
  Alcotest.(check int) "SIGINT convention" 130 (Signals.exit_code Sys.sigint);
  Alcotest.(check int) "SIGTERM convention" 143 (Signals.exit_code Sys.sigterm)

(* --- end to end over loopback TCP -------------------------------------- *)

let with_server ?(workers = 2) f =
  let server =
    Server.start { Server.default_config with Server.port = 0; workers }
  in
  Fun.protect (fun () -> f server) ~finally:(fun () -> Server.stop server)

let rpc_ok conn doc =
  match Client.rpc conn doc with
  | Ok d -> d
  | Error e -> Alcotest.failf "rpc failed: %s" e

let witness_req = { Request.defaults with Request.op = Request.Witness; n = 2 }

let member_str k doc =
  match Json.member k doc with Some (Json.Str s) -> Some s | _ -> None

let test_e2e_ping_and_witness () =
  with_server @@ fun server ->
  let conn = Client.connect_exn ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let pong = rpc_ok conn (Request.to_json { Request.defaults with id = 9 }) in
  Alcotest.(check bool) "pong ok" true (Json.member "ok" pong = Some (Json.Bool true));
  Alcotest.(check bool) "id echoed" true (Json.member "id" pong = Some (Json.Int 9));
  let resp = rpc_ok conn (Request.to_json witness_req) in
  Alcotest.(check (option string)) "cold witness is fresh" (Some "fresh")
    (member_str "provenance" resp);
  Alcotest.(check (option string)) "witness completes" (Some "complete")
    (match Json.member "result" resp with
     | Some r -> member_str "status" r
     | None -> None)

let test_e2e_cached_equals_fresh () =
  with_server @@ fun server ->
  let conn = Client.connect_exn ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let cold = rpc_ok conn (Request.to_json witness_req) in
  let warm = rpc_ok conn (Request.to_json witness_req) in
  Alcotest.(check (option string)) "second answer cached" (Some "cached")
    (member_str "provenance" warm);
  let result doc =
    match Json.member "result" doc with
    | Some r -> Json.to_string r
    | None -> Alcotest.fail "response carries no result"
  in
  (* the differential guarantee: byte-identical result bodies *)
  Alcotest.(check string) "cached result byte-identical to fresh" (result cold)
    (result warm);
  (* ... and both identical to a cold recomputation on a virgin dispatcher *)
  let virgin = Dispatch.create () in
  Alcotest.(check string) "fresh recomputation agrees byte for byte"
    (result cold)
    (result (Dispatch.handle virgin witness_req));
  Alcotest.(check bool) "same cache key reported" true
    (member_str "cache_key" cold = member_str "cache_key" warm)

let test_e2e_malformed_survival () =
  with_server @@ fun server ->
  let port = Server.port server in
  (* 1: framing garbage — answered with bad-frame, connection dropped *)
  let c1 = Client.connect_exn ~port () in
  Client.send_raw c1 "complete garbage\n";
  (match Client.recv c1 with
   | Ok doc ->
     Alcotest.(check (option string)) "bad-frame code" (Some "bad-frame")
       (match Json.member "error" doc with
        | Some e -> member_str "code" e
        | None -> None)
   | Error e -> Alcotest.failf "no error frame: %s" e);
  Client.close c1;
  (* 2: valid frame, invalid JSON — answered, connection survives *)
  let c2 = Client.connect_exn ~port () in
  Client.send_raw c2 "9\n{\"op\": xx";
  (match Client.recv c2 with
   | Ok doc ->
     Alcotest.(check (option string)) "bad-json code" (Some "bad-json")
       (match Json.member "error" doc with
        | Some e -> member_str "code" e
        | None -> None)
   | Error e -> Alcotest.failf "no error frame: %s" e);
  (* same connection still answers a well-formed request *)
  let pong = rpc_ok c2 (Request.to_json Request.defaults) in
  Alcotest.(check bool) "connection survives bad JSON" true
    (Json.member "ok" pong = Some (Json.Bool true));
  Client.close c2;
  (* 3: unknown protocol — typed error, daemon alive *)
  let c3 = Client.connect_exn ~port () in
  let resp =
    rpc_ok c3
      (Request.to_json
         { witness_req with Request.protocol = "no-such-protocol" })
  in
  Alcotest.(check (option string)) "unknown-protocol code" (Some "unknown-protocol")
    (match Json.member "error" resp with
     | Some e -> member_str "code" e
     | None -> None);
  Client.close c3;
  let s = Server.summary server in
  Alcotest.(check bool) "malformed frames counted" true (s.Server.malformed >= 2);
  Alcotest.(check int) "no handler died" 0 (s.Server.job_errors)

(* Regression: a single frame larger than the event loop's initial 8 KiB
   read buffer must still be read to completion.  The loop grows the
   buffer inside its read handler, so the select read-set must keep a
   connection whose buffer is full-but-growable — a guard that dropped it
   deadlocked the connection forever on any request over 8 KiB. *)
let test_e2e_oversized_frame () =
  with_server @@ fun server ->
  let big = String.make 30_000 'x' in
  let doc =
    Json.Obj [ ("op", Json.Str "witness"); ("protocol", Json.Str big) ]
  in
  (* a bounded-timeout client so a regression fails the test instead of
     hanging the suite *)
  let client =
    Client.make ~port:(Server.port server)
      ~policy:{ Client.default_policy with Client.attempts = 1; timeout_ms = 10_000 }
      ()
  in
  Fun.protect ~finally:(fun () -> Client.shutdown client) @@ fun () ->
  match Client.call client doc with
  | Error e -> Alcotest.failf "daemon never answered the 30k frame: %s" e
  | Ok resp ->
    Alcotest.(check (option string)) "typed error, whole frame parsed"
      (Some "unknown-protocol")
      (match Json.member "error" resp with
       | Some e -> member_str "code" e
       | None -> None)

let test_e2e_concurrent_clients () =
  with_server ~workers:4 @@ fun server ->
  let port = Server.port server in
  let reqs =
    [
      { Request.defaults with Request.op = Request.Witness; n = 2 };
      { Request.defaults with Request.op = Request.Valency; n = 2 };
      { Request.defaults with Request.op = Request.Check; protocol = "broken-lww"; n = 2 };
    ]
  in
  let worker i () =
    let conn = Client.connect_exn ~port () in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    List.init 6 (fun j ->
        let req = List.nth reqs ((i + j) mod List.length reqs) in
        Json.to_string
          (match Json.member "result" (rpc_ok conn (Request.to_json req)) with
           | Some r -> r
           | None -> Json.Null))
  in
  let per_domain =
    Array.init 4 (fun i -> Domain.spawn (worker i)) |> Array.map Domain.join
  in
  (* every domain asked the same three questions; the answers must agree
     byte for byte no matter which worker/cache path served them *)
  let canonical = ref [] in
  Array.iteri
    (fun i results ->
      List.iteri
        (fun j body ->
          let key = (i + j) mod List.length reqs in
          match List.assoc_opt key !canonical with
          | None -> canonical := (key, body) :: !canonical
          | Some expect ->
            Alcotest.(check string)
              (Printf.sprintf "domain %d answer %d consistent" i j)
              expect body)
        results)
    per_domain;
  let stats = Dispatch.cache_stats (Server.dispatcher server) in
  Alcotest.(check bool) "cache served repeats" true
    (stats.Ts_core.Cache.hits > 0)

(* --- persistence across restarts ---------------------------------------- *)

let test_e2e_restart_recovers () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tswitlog-e2e-%d.log" (Unix.getpid ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let with_store_server f =
    let server =
      Server.start
        { Server.default_config with Server.port = 0; store_path = Some path }
    in
    Fun.protect (fun () -> f server) ~finally:(fun () -> Server.stop server)
  in
  let result doc =
    match Json.member "result" doc with
    | Some r -> Json.to_string r
    | None -> Alcotest.fail "response carries no result"
  in
  (* first daemon: compute and persist *)
  let fresh_body =
    with_store_server @@ fun server ->
    let conn = Client.connect_exn ~port:(Server.port server) () in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let cold = rpc_ok conn (Request.to_json witness_req) in
    Alcotest.(check (option string)) "first answer fresh" (Some "fresh")
      (member_str "provenance" cold);
    let s = Server.summary server in
    (match s.Server.store with
     | None -> Alcotest.fail "no store stats on a store-backed server"
     | Some st ->
       Alcotest.(check int) "answer persisted" 1 st.Ts_store.Store.records);
    result cold
  in
  (* second daemon, same log: the answer must come back from disk,
     byte-identical, without recomputation *)
  with_store_server @@ fun server ->
  let conn = Client.connect_exn ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let back = rpc_ok conn (Request.to_json witness_req) in
  Alcotest.(check (option string)) "served from the log" (Some "recovered")
    (member_str "provenance" back);
  Alcotest.(check string) "recovered result byte-identical to fresh" fresh_body
    (result back);
  (* now it is in the memory tier: the next hit is a plain cache hit *)
  let warm = rpc_ok conn (Request.to_json witness_req) in
  Alcotest.(check (option string)) "then cached" (Some "cached")
    (member_str "provenance" warm);
  Alcotest.(check string) "cached agrees too" fresh_body (result warm);
  match (Server.summary server).Server.store with
  | None -> Alcotest.fail "no store stats"
  | Some st ->
    Alcotest.(check int) "log replayed at open" 1 st.Ts_store.Store.recovered

(* --- pipelining ---------------------------------------------------------- *)

let test_e2e_pipelined_ordering () =
  (* a burst of frames sent before reading anything: responses must come
     back exactly in request order, even though some are answered on the
     loop and some by a worker *)
  with_server @@ fun server ->
  let conn = Client.connect_exn ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let frame doc =
    let s = Json.to_string doc in
    string_of_int (String.length s) ^ "\n" ^ s
  in
  let reqs =
    [
      { witness_req with Request.id = 1 } (* deferred: engine computation *);
      { Request.defaults with Request.id = 2 } (* direct: ping *);
      { witness_req with Request.id = 3 } (* direct once 1 is cached *);
      { Request.defaults with Request.id = 4 };
    ]
  in
  Client.send_raw conn
    (String.concat "" (List.map (fun r -> frame (Request.to_json r)) reqs));
  List.iter
    (fun (r : Request.t) ->
      match Client.recv conn with
      | Error e -> Alcotest.failf "pipelined recv: %s" e
      | Ok doc ->
        Alcotest.(check bool)
          (Printf.sprintf "response %d in order" r.Request.id)
          true
          (Json.member "id" doc = Some (Json.Int r.Request.id)))
    reqs

(* --- the resilient client and the chaos layer --------------------------- *)

module Chaos = Ts_service.Chaos
module Response = Ts_service.Response

(* satellite regression: a server-side close mid-conversation surfaces as
   a tagged Error, never an escaped Unix_error *)
let test_conn_reset_tagged () =
  with_server @@ fun server ->
  let port = Server.port server in
  let c = Client.connect_exn ~port () in
  (* framing garbage earns the bad-frame answer and a server-side close *)
  Client.send_raw c "complete garbage\n";
  (match Client.recv c with
   | Ok doc ->
     Alcotest.(check (option string)) "bad-frame first" (Some "bad-frame")
       (match Json.member "error" doc with
        | Some e -> member_str "code" e
        | None -> None)
   | Error e -> Alcotest.failf "no error frame: %s" e);
  (* the next exchange runs into the closed socket: tagged, no raise *)
  (match Client.rpc c (Request.to_json Request.defaults) with
   | Ok doc -> Alcotest.failf "rpc on a dead conn answered: %s" (Json.to_string doc)
   | Error msg ->
     Alcotest.(check string) "tagged conn_reset" "conn_reset"
       (Client.error_tag msg));
  Client.close c;
  (* and a refused connect is a tagged Error too *)
  match Client.connect ~port:1 () with
  | Ok _ -> Alcotest.fail "connected to port 1"
  | Error msg ->
    Alcotest.(check string) "tagged connect" "connect" (Client.error_tag msg)

let test_health_op () =
  with_server @@ fun server ->
  let conn = Client.connect_exn ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let req = { Request.defaults with Request.op = Request.Health; id = 5 } in
  let doc = rpc_ok conn (Request.to_json req) in
  Alcotest.(check bool) "ok" true (Json.member "ok" doc = Some (Json.Bool true));
  let result = match Json.member "result" doc with Some r -> r | None -> Json.Null in
  Alcotest.(check (option string)) "status ok" (Some "ok")
    (member_str "status" result);
  Alcotest.(check bool) "load snapshot present" true
    (Json.member "queue_depth" result <> None
    && Json.member "workers" result <> None);
  (* never cached: a second ask carries no provenance marker *)
  let again = rpc_ok conn (Request.to_json req) in
  Alcotest.(check (option string)) "health is not a cache citizen" None
    (member_str "provenance" again)

(* the error envelope carries the machine-readable hint ... *)
let test_retry_after_envelope () =
  let doc = Response.error ~retry_after_ms:50 ~id:(Some 3) ~code:"overloaded" "busy" in
  match Json.member "error" doc with
  | Some err ->
    Alcotest.(check bool) "retry_after_ms in the error object" true
      (Json.member "retry_after_ms" err = Some (Json.Int 50));
    Alcotest.(check (option string)) "code kept" (Some "overloaded")
      (member_str "code" err)
  | None -> Alcotest.fail "no error object"

(* ... and the resilient client honors it: a hand-rolled server refuses
   the first attempt with retry_after_ms and serves the second *)
let test_retry_after_honored () =
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let server =
    Domain.spawn (fun () ->
        let serve_one doc =
          let fd, _ = Unix.accept lsock in
          (match Ts_service.Frame.read fd with
           | Ok _ -> Ts_service.Frame.write fd (Json.to_string doc)
           | Error _ -> ());
          fd
        in
        (* first attempt: the busy refusal, connection left open *)
        let fd1 =
          serve_one
            (Response.error ~retry_after_ms:30 ~id:(Some 1) ~code:"overloaded"
               "queue full")
        in
        (* the client keeps the connection for the retry *)
        (match Ts_service.Frame.read fd1 with
         | Ok _ ->
           Ts_service.Frame.write fd1
             (Json.to_string
                (Json.Obj
                   [ ("id", Json.Int 1); ("ok", Json.Bool true);
                     ("result", Json.Str "served") ]))
         | Error _ -> ());
        Unix.close fd1;
        Unix.close lsock)
  in
  let cl =
    Client.make
      ~policy:{ Client.default_policy with attempts = 3; backoff_ms = 5 }
      ~port ()
  in
  let t0 = Unix.gettimeofday () in
  (match Client.call cl (Request.to_json { Request.defaults with Request.id = 1 }) with
   | Ok doc ->
     Alcotest.(check bool) "second attempt served" true
       (Json.member "ok" doc = Some (Json.Bool true))
   | Error msg -> Alcotest.failf "call failed: %s" msg);
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let s = Client.stats cl in
  Client.shutdown cl;
  Domain.join server;
  Alcotest.(check int) "one busy refusal seen" 1 s.Client.server_busy;
  Alcotest.(check int) "its retry_after_ms honored" 1 s.Client.retry_after_honored;
  Alcotest.(check int) "one retry spent" 1 s.Client.retries;
  Alcotest.(check bool) "the hinted pause was actually taken" true
    (elapsed_ms >= 25.)

(* the e2e chaos bar in miniature: two concurrent resilient clients send a
   mix of witness, check and valency requests through a proxy faulting
   every connection, and every call must still succeed with the bytes of
   the fault-free answer *)
let test_resilient_through_chaos () =
  with_server ~workers:2 @@ fun server ->
  let port = Server.port server in
  let base = Request.defaults in
  let reqs =
    [|
      witness_req;
      { witness_req with Request.protocol = "swap" };
      { base with Request.op = Request.Check; protocol = "broken-lww"; n = 2 };
      { base with Request.op = Request.Check; protocol = "broken-max"; n = 2 };
      { base with Request.op = Request.Check; protocol = "racing"; n = 2;
                  max_configs = 20_000 };
      { base with Request.op = Request.Valency; protocol = "racing"; n = 2 };
    |]
  in
  let body doc = Option.map Json.to_string (Json.member "result" doc) in
  (* fault-free reference bodies over a direct connection *)
  let direct = Client.connect_exn ~port () in
  let reference = Array.map (fun r -> body (rpc_ok direct (Request.to_json r))) reqs in
  Client.close direct;
  Array.iteri
    (fun k r -> if r = None then Alcotest.failf "request %d: no fault-free result" k)
    reference;
  let proxy =
    Chaos.start
      { (Chaos.default_config ~upstream_port:port) with seed = 11; fault_prob = 1.0 }
  in
  Fun.protect ~finally:(fun () -> Chaos.stop proxy) @@ fun () ->
  let calls_per_client = 12 in
  (* each caller returns (request index, answer body or failure) per call *)
  let caller w () =
    let cl =
      Client.make
        ~policy:
          { Client.default_policy with attempts = 12; backoff_ms = 5;
                                       seed = 11 + (7919 * w) }
        ~port:(Chaos.port proxy) ()
    in
    let answers =
      List.init calls_per_client (fun j ->
          let k = (w + j) mod Array.length reqs in
          let req = { reqs.(k) with Request.id = (100 * w) + j } in
          (k, Result.map body (Client.call cl (Request.to_json req))))
    in
    let stats = Client.stats cl in
    Client.shutdown cl;
    (answers, stats)
  in
  let per_client = List.map Domain.join (List.init 2 (fun w -> Domain.spawn (caller w))) in
  List.iteri
    (fun w (answers, _) ->
      List.iteri
        (fun j (k, got) ->
          match got with
          | Error msg -> Alcotest.failf "client %d call %d exhausted: %s" w j msg
          | Ok got ->
            Alcotest.(check (option string))
              (Printf.sprintf "client %d call %d (%s) byte-identical through chaos" w j
                 (Request.op_to_string reqs.(k).Request.op))
              reference.(k) got)
        answers)
    per_client;
  let calls = List.fold_left (fun acc (_, cs) -> acc + cs.Client.calls) 0 per_client in
  let retries = List.fold_left (fun acc (_, cs) -> acc + cs.Client.retries) 0 per_client in
  let ps = Chaos.stats proxy in
  Alcotest.(check int) "every call eventually answered" (2 * calls_per_client) calls;
  Alcotest.(check bool) "faults were actually injected" true
    (ps.Chaos.faulted > 0);
  Alcotest.(check bool) "and absorbed by retries, not luck" true
    (retries > 0 || ps.Chaos.resets = 0)

(* a dead upstream trips the breaker after the configured streak *)
let test_breaker_opens () =
  let cl =
    Client.make
      ~policy:
        {
          Client.default_policy with
          attempts = 4;
          backoff_ms = 2;
          backoff_max_ms = 4;
          breaker_threshold = 2;
          breaker_cooldown_ms = 20;
        }
      ~port:1 ()
  in
  (match Client.call cl (Request.to_json Request.defaults) with
   | Ok _ -> Alcotest.fail "called through a dead port"
   | Error msg ->
     Alcotest.(check bool) "exhausted reported" true
       (Client.error_tag msg = "exhausted"));
  let s = Client.stats cl in
  Client.shutdown cl;
  Alcotest.(check int) "all attempts spent" 4 s.Client.attempts_made;
  Alcotest.(check bool) "breaker opened on the streak" true
    (s.Client.breaker_opens >= 1);
  Alcotest.(check int) "every attempt a tagged connect failure" 4
    s.Client.connect_errors

(* --- served check/resilient answers ------------------------------------ *)

let result_of doc =
  match Json.member "result" doc with
  | Some r -> r
  | None -> Alcotest.failf "no result in %s" (Json.to_string doc)

(* Regression: the served resilience check re-validates its own witness.
   The replay must probe at the request's solo budget — at the default
   (300) the racing survivor decides, and the daemon contradicted its own
   counterexample with "survivor group can decide on replay". *)
let test_resilient_replay_budget () =
  let req =
    { Request.defaults with
      Request.op = Request.Resilient; protocol = "racing"; n = 2; t_faults = 1;
      solo_budget = 5 }
  in
  let result = result_of (Dispatch.handle (Dispatch.create ()) req) in
  Alcotest.(check (option string)) "a starved survivor is a violation"
    (Some "violation") (member_str "verdict" result);
  Alcotest.(check (option string)) "and its witness replays at the same budget"
    (Some "confirmed") (member_str "replay" result)

(* A check or resilience request enumerates all 2^n input vectors before
   its budget is first charged, so [n] is bounded at the boundary. *)
let test_explore_n_bounded () =
  let d = Dispatch.create () in
  List.iter
    (fun op ->
      let req = { Request.defaults with Request.op; n = 40 } in
      let doc = Dispatch.handle d req in
      let err =
        match Json.member "error" doc with
        | Some e -> e
        | None -> Alcotest.failf "n = 40 was served: %s" (Json.to_string doc)
      in
      Alcotest.(check (option string)) "typed refusal" (Some "invalid-argument")
        (member_str "code" err);
      let msg = Option.value ~default:"" (member_str "message" err) in
      let limit = string_of_int Dispatch.max_explore_n in
      Alcotest.(check bool) ("message names the limit: " ^ msg) true
        (List.exists (String.equal limit)
           (String.split_on_char ' ' msg)))
    [ Request.Check; Request.Resilient ];
  let small = { Request.defaults with Request.op = Request.Check; n = 2; max_configs = 200 } in
  Alcotest.(check (option string)) "a small n is still served" (Some "clean")
    (member_str "verdict" (result_of (Dispatch.handle d small)))

(* Regression: the cache key packs an absent horizon as -1, so
   "horizon": -1 must never reach it.  It would share the default
   request's key, and its complete (hence cached) "blocked" answer would
   be served to every later default valency request in place of
   bivalent.  Negative counts are refused at decode, naming the field. *)
let test_negative_counts_refused () =
  with_server @@ fun server ->
  let conn = Client.connect_exn ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  let valency =
    [ ("op", Json.Str "valency"); ("protocol", Json.Str "racing"); ("n", Json.Int 3) ]
  in
  List.iter
    (fun field ->
      let resp = rpc_ok conn (Json.Obj (valency @ [ (field, Json.Int (-1)) ])) in
      let err =
        match Json.member "error" resp with
        | Some e -> e
        | None -> Alcotest.failf "%s = -1 was served: %s" field (Json.to_string resp)
      in
      Alcotest.(check (option string)) (field ^ " refused") (Some "bad-request")
        (member_str "code" err);
      let msg = Option.value ~default:"" (member_str "message" err) in
      Alcotest.(check bool) ("message names the field: " ^ msg) true
        (List.mem (Printf.sprintf "%S" field) (String.split_on_char ' ' msg)))
    [ "horizon"; "max_configs"; "max_depth"; "solo_budget" ];
  let resp = rpc_ok conn (Json.Obj valency) in
  Alcotest.(check (option string)) "the default request is computed" (Some "fresh")
    (member_str "provenance" resp);
  Alcotest.(check (option string)) "and bivalent" (Some "bivalent")
    (member_str "class" (result_of resp))

(* Regression: swap-chain exists only for n >= 3, and its constructor
   raised at n = 2, so the daemon answered "invalid-argument" where swap
   at n = 3 answers "unknown-protocol".  Both are the catalog refusing. *)
let test_unsupported_n_refused () =
  let d = Dispatch.create () in
  List.iter
    (fun (protocol, n) ->
      let req = { Request.defaults with Request.op = Request.Witness; protocol; n } in
      let doc = Dispatch.handle d req in
      Alcotest.(check (option string))
        (Printf.sprintf "%s at n = %d" protocol n)
        (Some "unknown-protocol")
        (Option.bind (Json.member "error" doc) (member_str "code")))
    [ ("swap-chain", 2); ("swap", 3) ]

(* Robustness: a client's bytes go through Frame.parse, Json.of_string and
   Request.of_json before anything else reads them.  Random strings,
   random payloads in well-formed frames, and 1-5 byte edits of valid
   request frames must each come back as a frame, [`Need_more] or a typed
   error at every stage, never as an exception. *)
let decode_wire wire =
  let buf = Bytes.of_string wire in
  match Frame.parse buf ~pos:0 ~len:(Bytes.length buf) with
  | `Need_more | `Error _ -> ()
  | `Frame (off, n) -> (
    match Json.of_string (Bytes.sub_string buf off n) with
    | Error _ -> ()
    | Ok doc -> ignore (Request.of_json doc : (Request.t, string) result))

let test_decoders_never_raise () =
  let frame payload = string_of_int (String.length payload) ^ "\n" ^ payload in
  let valid =
    List.map
      (fun r -> frame (Json.to_string (Request.to_json r)))
      [
        Request.defaults;
        witness_req;
        { Request.defaults with Request.op = Request.Valency; horizon = Some 30 };
        { Request.defaults with Request.op = Request.Resilient; id = 7; t_faults = 2;
          deadline = Some 1.5; max_nodes = Some 9; certificate = true };
      ]
  in
  let gen =
    QCheck2.Gen.(
      oneof
        [
          string;
          map frame string;
          map2 (List.fold_left Byte_edit.edit) (oneofl valid)
            (list_size (int_range 1 5) (triple (int_bound 2) nat char));
        ])
  in
  let test =
    QCheck2.Test.make ~count:3_000 ~name:"untrusted bytes decode without raising"
      ~print:String.escaped gen
      (fun wire -> decode_wire wire; true)
  in
  QCheck2.Test.check_exn test

let suite =
  ( "service",
    [
      Alcotest.test_case "frame round trip" `Quick test_frame_roundtrip;
      Alcotest.test_case "frame error taxonomy" `Quick test_frame_errors;
      Alcotest.test_case "frame incremental parse" `Quick
        test_frame_parse_incremental;
      Alcotest.test_case "json reader" `Quick test_json_parse;
      Alcotest.test_case "json round trips the emitter" `Quick test_json_roundtrip_emitter;
      Alcotest.test_case "request wire round trip" `Quick test_request_roundtrip;
      Alcotest.test_case "pool drains everything" `Quick test_pool_runs_everything;
      Alcotest.test_case "pool backpressure + containment" `Quick
        test_pool_backpressure_and_containment;
      Alcotest.test_case "signal handlers (simulated delivery)" `Quick
        test_signals_simulate;
      Alcotest.test_case "e2e: ping and witness over TCP" `Quick
        test_e2e_ping_and_witness;
      Alcotest.test_case "e2e: cached equals fresh, byte for byte" `Quick
        test_e2e_cached_equals_fresh;
      Alcotest.test_case "e2e: a frame beyond the loop's initial buffer" `Quick
        test_e2e_oversized_frame;
      Alcotest.test_case "e2e: malformed input never kills the daemon" `Quick
        test_e2e_malformed_survival;
      Alcotest.test_case "e2e: concurrent clients agree" `Quick
        test_e2e_concurrent_clients;
      Alcotest.test_case "e2e: restart recovers answers from the store" `Quick
        test_e2e_restart_recovers;
      Alcotest.test_case "e2e: pipelined responses keep request order" `Quick
        test_e2e_pipelined_ordering;
      Alcotest.test_case "client: server-side close is a tagged error" `Quick
        test_conn_reset_tagged;
      Alcotest.test_case "health op: readiness + load snapshot" `Quick
        test_health_op;
      Alcotest.test_case "error envelope carries retry_after_ms" `Quick
        test_retry_after_envelope;
      Alcotest.test_case "client honors a server retry_after_ms" `Quick
        test_retry_after_honored;
      Alcotest.test_case "e2e: resilient client through the chaos proxy" `Quick
        test_resilient_through_chaos;
      Alcotest.test_case "client: circuit breaker opens on a failure streak"
        `Quick test_breaker_opens;
      Alcotest.test_case "resilient replays its witness at the request's budget"
        `Quick test_resilient_replay_budget;
      Alcotest.test_case "check/resilient refuse n beyond the limit" `Quick
        test_explore_n_bounded;
      Alcotest.test_case "negative counts are refused, not cached" `Quick
        test_negative_counts_refused;
      Alcotest.test_case "decoders of untrusted bytes never raise" `Quick
        test_decoders_never_raise;
      Alcotest.test_case "an unsupported n is an unknown protocol" `Quick
        test_unsupported_n_refused;
    ] )
