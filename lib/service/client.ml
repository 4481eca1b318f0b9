module Json = Ts_analysis.Json
module Rng = Ts_model.Rng

type conn = { fd : Unix.file_descr }

(* ---- error taxonomy --------------------------------------------------- *)

(* Every [Error] string starts with a stable tag followed by ": ".
   "conn_reset" = the transport died under us, "parse" = the peer spoke
   bytes that are not the protocol, "timeout" = the per-request deadline
   expired, "connect" = no connection could be made, "io" = anything
   else the OS reported.  [error_tag] recovers the tag. *)
let error_tag msg =
  match String.index_opt msg ':' with
  | Some i -> String.sub msg 0 i
  | None -> msg

let tag_of_unix_error = function
  | Unix.ECONNRESET | Unix.EPIPE | Unix.ECONNABORTED | Unix.ENOTCONN
  | Unix.ESHUTDOWN | Unix.EBADF ->
    "conn_reset"
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> "timeout"
  | _ -> "io"

let unix_err ~what err =
  Printf.sprintf "%s: %s failed: %s" (tag_of_unix_error err) what
    (Unix.error_message err)

(* ---- one connection --------------------------------------------------- *)

let connect ?(host = "127.0.0.1") ~port () =
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (err, _, _) ->
    Error (Printf.sprintf "connect: socket: %s" (Unix.error_message err))
  | fd -> (
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
    | () -> Ok { fd }
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match e with
      | Unix.Unix_error (err, _, _) ->
        Error
          (Printf.sprintf "connect: %s:%d: %s" host port (Unix.error_message err))
      | _ ->
        Error
          (Printf.sprintf "connect: %s:%d: %s" host port (Printexc.to_string e))))

let connect_exn ?host ~port () =
  match connect ?host ~port () with Ok c -> c | Error e -> failwith e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* [set_deadline] arms SO_RCVTIMEO/SO_SNDTIMEO so a stalled peer turns
   into a tagged "timeout" error instead of a hung client; 0 disarms them. *)
let set_deadline c ~ms =
  let s = float_of_int (max 0 ms) /. 1000. in
  try
    Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO s;
    Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO s
  with Unix.Unix_error _ -> ()

let recv c =
  match Frame.read c.fd with
  | exception Unix.Unix_error (err, _, _) -> Error (unix_err ~what:"recv" err)
  | Error Frame.Eof -> Error "conn_reset: peer closed the connection"
  | Error (Frame.Truncated _ as e) ->
    Error (Printf.sprintf "conn_reset: %s" (Frame.error_to_string e))
  | Error ((Frame.Bad_length _ | Frame.Too_large _) as e) ->
    Error (Printf.sprintf "parse: %s" (Frame.error_to_string e))
  | Ok payload -> (
    match Json.of_string payload with
    | Error msg -> Error (Printf.sprintf "parse: unparsable response: %s" msg)
    | Ok doc -> Ok doc)

let rpc c doc =
  match Frame.write c.fd (Json.to_string doc) with
  | exception Unix.Unix_error (err, _, _) -> Error (unix_err ~what:"send" err)
  | () -> recv c

let send_raw c bytes =
  let n = String.length bytes in
  let rec go off =
    if off < n then
      let w = Unix.write_substring c.fd bytes off (n - off) in
      go (off + w)
  in
  go 0

let request ?host ~port doc =
  match connect ?host ~port () with
  | Error _ as e -> e
  | Ok c -> Fun.protect (fun () -> rpc c doc) ~finally:(fun () -> close c)

(* ---- the resilient client --------------------------------------------- *)

type policy = {
  attempts : int;
  backoff_ms : int;
  backoff_max_ms : int;
  timeout_ms : int;
  breaker_threshold : int;
  breaker_cooldown_ms : int;
  seed : int;
}

let default_policy =
  {
    attempts = 5;
    backoff_ms = 20;
    backoff_max_ms = 2000;
    timeout_ms = 10_000;
    breaker_threshold = 8;
    breaker_cooldown_ms = 500;
    seed = 2026;
  }

(* Past the daemon's deadline, the time it takes to stop the engine and
   answer. *)
let deadline_margin_ms = 5_000

let attempt_timeout_ms policy doc =
  let op = Option.bind (Json.member "op" doc) Json.to_str_opt in
  match Option.bind op Request.op_of_string with
  | Some (Request.Ping | Request.Stats | Request.Health) -> policy.timeout_ms
  | _ when policy.timeout_ms = 0 -> 0
  | _ ->
    let deadline =
      Option.value ~default:Request.daemon_deadline
        (Option.bind (Json.member "deadline" doc) Json.to_float_opt)
    in
    max policy.timeout_ms (int_of_float (Float.ceil (deadline *. 1000.)) + deadline_margin_ms)

type breaker_state =
  | Closed
  | Open
  | Half_open

type stats = {
  calls : int;
  attempts_made : int;
  retries : int;
  reconnects : int;
  timeouts : int;
  conn_resets : int;
  parse_errors : int;
  connect_errors : int;
  server_busy : int;
  retry_after_honored : int;
  breaker_opens : int;
}

type client = {
  host : string;
  cport : int;
  policy : policy;
  rng : Rng.t;
  mutable conn : conn option;
  mutable connects : int;  (* successful connects, first one included *)
  mutable state : breaker_state;
  mutable consec_failures : int;
  mutable open_until : float;
  mutable s_calls : int;
  mutable s_attempts : int;
  mutable s_retries : int;
  mutable s_timeouts : int;
  mutable s_conn_resets : int;
  mutable s_parse : int;
  mutable s_connect : int;
  mutable s_busy : int;
  mutable s_retry_after : int;
  mutable s_breaker_opens : int;
}

let make ?(host = "127.0.0.1") ?(policy = default_policy) ~port () =
  if policy.attempts < 1 then invalid_arg "Client.make: attempts < 1";
  {
    host;
    cport = port;
    policy;
    rng = Rng.create policy.seed;
    conn = None;
    connects = 0;
    state = Closed;
    consec_failures = 0;
    open_until = 0.;
    s_calls = 0;
    s_attempts = 0;
    s_retries = 0;
    s_timeouts = 0;
    s_conn_resets = 0;
    s_parse = 0;
    s_connect = 0;
    s_busy = 0;
    s_retry_after = 0;
    s_breaker_opens = 0;
  }

let stats cl =
  {
    calls = cl.s_calls;
    attempts_made = cl.s_attempts;
    retries = cl.s_retries;
    reconnects = max 0 (cl.connects - 1);
    timeouts = cl.s_timeouts;
    conn_resets = cl.s_conn_resets;
    parse_errors = cl.s_parse;
    connect_errors = cl.s_connect;
    server_busy = cl.s_busy;
    retry_after_honored = cl.s_retry_after;
    breaker_opens = cl.s_breaker_opens;
  }

let drop_conn cl =
  match cl.conn with
  | None -> ()
  | Some c ->
    close c;
    cl.conn <- None

let shutdown cl = drop_conn cl

let get_conn cl =
  match cl.conn with
  | Some c -> Ok c
  | None -> (
    match connect ~host:cl.host ~port:cl.cport () with
    | Error _ as e -> e
    | Ok c ->
      cl.connects <- cl.connects + 1;
      cl.conn <- Some c;
      Ok c)

let count_tag cl msg =
  match error_tag msg with
  | "timeout" -> cl.s_timeouts <- cl.s_timeouts + 1
  | "conn_reset" -> cl.s_conn_resets <- cl.s_conn_resets + 1
  | "parse" -> cl.s_parse <- cl.s_parse + 1
  | "connect" -> cl.s_connect <- cl.s_connect + 1
  | _ -> ()

let note_failure cl =
  cl.consec_failures <- cl.consec_failures + 1;
  if
    cl.policy.breaker_threshold > 0
    && cl.consec_failures >= cl.policy.breaker_threshold
    && cl.state <> Open
  then begin
    cl.state <- Open;
    cl.open_until <-
      Unix.gettimeofday () +. (float_of_int cl.policy.breaker_cooldown_ms /. 1000.);
    cl.s_breaker_opens <- cl.s_breaker_opens + 1
  end

let note_success cl =
  cl.consec_failures <- 0;
  cl.state <- Closed

(* Exponential backoff with seeded half-jitter: attempt [i] (1-based)
   sleeps a uniform draw from [d/2, d] where d = base * 2^(i-1), capped. *)
let backoff_sleep cl i =
  let d =
    min cl.policy.backoff_max_ms (cl.policy.backoff_ms * (1 lsl min (i - 1) 16))
  in
  if d > 0 then begin
    let half = d / 2 in
    let ms = half + Rng.int cl.rng (d - half + 1) in
    Unix.sleepf (float_of_int ms /. 1000.)
  end

(* The breaker never turns a call into a hard failure while attempts
   remain — requests are idempotent pure queries, so the safe reaction
   to a sick server is to stop hammering it, not to fabricate an error.
   An open breaker therefore *sleeps out* the cooldown and lets the
   next attempt through as the half-open probe. *)
let breaker_gate cl =
  match cl.state with
  | Closed | Half_open -> ()
  | Open ->
    let now = Unix.gettimeofday () in
    if cl.open_until > now then Unix.sleepf (cl.open_until -. now);
    cl.state <- Half_open

(* A failure envelope the client should transparently retry:
   [overloaded]/[shutting-down] are explicit backpressure (and carry the
   server's [retry_after_ms] hint), while [bad-frame]/[bad-json] in
   response to a request *we* framed and serialized means the bytes were
   damaged in flight — a transport fault wearing a protocol error's
   clothes.  The daemon closes the connection after [bad-frame], so that
   one also drops ours. *)
let retry_hint doc =
  match Json.member "ok" doc with
  | Some (Json.Bool false) -> (
    match Json.member "error" doc with
    | None -> `Final
    | Some err -> (
      let ra = Option.bind (Json.member "retry_after_ms" err) Json.to_int_opt in
      match Option.bind (Json.member "code" err) Json.to_str_opt with
      | Some (("overloaded" | "shutting-down") as code) ->
        `Retry (code, ra, `Keep)
      | Some ("bad-frame" as code) -> `Retry (code, ra, `Drop)
      | Some ("bad-json" as code) -> `Retry (code, ra, `Keep)
      | _ -> `Final))
  | _ -> `Final

let call cl doc =
  cl.s_calls <- cl.s_calls + 1;
  let timeout_ms = attempt_timeout_ms cl.policy doc in
  let fail_after msg =
    Error
      (Printf.sprintf "exhausted: %d attempt(s) failed; last error: %s"
         cl.policy.attempts msg)
  in
  let rec attempt i last_err =
    if i > cl.policy.attempts then fail_after last_err
    else begin
      if i > 1 then cl.s_retries <- cl.s_retries + 1;
      cl.s_attempts <- cl.s_attempts + 1;
      breaker_gate cl;
      match get_conn cl with
      | Error e ->
        count_tag cl e;
        note_failure cl;
        if i < cl.policy.attempts then backoff_sleep cl i;
        attempt (i + 1) e
      | Ok c -> (
        set_deadline c ~ms:timeout_ms;
        match rpc c doc with
        | Error e ->
          (* any transport failure poisons request/response pairing on
             this connection (a late response could answer the wrong
             request), so the connection is always dropped *)
          drop_conn cl;
          count_tag cl e;
          note_failure cl;
          if i < cl.policy.attempts then backoff_sleep cl i;
          attempt (i + 1) e
        | Ok resp -> (
          match retry_hint resp with
          | `Final ->
            note_success cl;
            Ok resp
          | `Retry (code, ra, conn_fate) ->
            cl.s_busy <- cl.s_busy + 1;
            (match conn_fate with `Drop -> drop_conn cl | `Keep -> ());
            note_failure cl;
            (match ra with
            | Some ms when ms >= 0 ->
              cl.s_retry_after <- cl.s_retry_after + 1;
              if i < cl.policy.attempts then
                Unix.sleepf (float_of_int ms /. 1000.)
            | _ -> if i < cl.policy.attempts then backoff_sleep cl i);
            attempt (i + 1) (Printf.sprintf "server: %s" code)))
    end
  in
  attempt 1 "no attempt made"
