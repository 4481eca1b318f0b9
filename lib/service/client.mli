(** Client for the [tightspace serve] wire protocol — a bare connection
    layer plus a resilient, retrying client built on it.

    Used by the [tightspace query] subcommand and the end-to-end
    tests.  One {!conn} is one TCP connection carrying
    any number of sequential request/response exchanges.

    {b Error taxonomy.}  No function here lets [Unix.Unix_error] escape:
    every failure is an [Error msg] whose text starts with a stable tag
    (recoverable with {!error_tag}) —

    - ["conn_reset"]: the transport died (peer closed, RST, EPIPE, a
      stream that ended mid-frame);
    - ["parse"]: the peer's bytes are not the protocol (bad frame
      header, oversized claim, unparsable JSON payload);
    - ["timeout"]: the per-request deadline expired (SO_RCVTIMEO /
      SO_SNDTIMEO);
    - ["connect"]: no connection could be established;
    - ["io"]: any other OS-reported failure.

    Protocol-level failures ([{"ok":false,...}]) are {e not} errors at
    this layer: they arrive as [Ok] documents exactly as the daemon sent
    them.  The resilient {!call} additionally interprets the retryable
    subset of them (see below). *)

module Json := Ts_analysis.Json

(** {1 One connection} *)

type conn

(** [connect ~port ()] opens a connection to a serving daemon.  [host]
    defaults to ["127.0.0.1"].  [Error "connect: ..."] when unreachable. *)
val connect : ?host:string -> port:int -> unit -> (conn, string) result

(** [connect] for contexts that know the daemon is up (tests, bench
    setup); failures raise [Failure] with the tagged message. *)
val connect_exn : ?host:string -> port:int -> unit -> conn

val close : conn -> unit

(** [rpc conn doc] frames and sends [doc], then reads and parses one
    response frame.  [Error _] covers transport failures and unparsable
    responses, tagged as above — protocol-level errors arrive as [Ok]
    documents with an ["error"] field, exactly as the daemon sent them. *)
val rpc : conn -> Json.t -> (Json.t, string) result

(** [send_raw conn bytes] writes [bytes] verbatim — no framing, no
    validation.  Exists so tests and the CI smoke can poke the daemon
    with deliberately malformed input.
    @raise Unix.Unix_error if the socket is already dead (tests pair it
    with {!recv}/{!rpc}, which report the death as a tagged [Error]). *)
val send_raw : conn -> string -> unit

(** [recv conn] reads one response frame without having sent anything
    through {!rpc} (pairs with {!send_raw}). *)
val recv : conn -> (Json.t, string) result

(** [error_tag msg] is the taxonomy tag of a tagged error message (the
    text before the first [':'], e.g. ["conn_reset"]). *)
val error_tag : string -> string

(** {1 The resilient client}

    A {!client} owns (at most) one connection and a retry budget, and
    turns a flaky network — the chaos proxy's habitat — into at most
    [attempts] tries per call.  Retrying whole requests is safe by
    construction: every operation the daemon serves is an idempotent
    pure query — asking twice can cost time, never correctness (the
    idempotency argument in docs/SERVICE.md "Failure model").

    What {!call} retries: every transport failure (reset, timeout,
    parse damage, failed connect — the connection is dropped and
    reopened first, since a transport fault poisons request/response
    pairing), plus the retryable failure envelopes [overloaded] and
    [shutting-down] (honoring their [retry_after_ms] hint when present)
    and [bad-frame]/[bad-json] — which, in response to a request this
    client framed and serialized itself, indicate in-flight corruption,
    not a malformed request.  Any other failure envelope
    ([unknown-protocol], [invalid-argument], ...) is a deterministic
    answer and is returned as-is without burning retries.

    Between attempts the client sleeps an exponential backoff with
    seeded half-jitter (uniform in [d/2, d], d doubling from
    [backoff_ms] up to [backoff_max_ms]) — deterministic given
    [policy.seed].  That backoff, or a server's [retry_after_ms], is the
    only delay between attempts.

    Not thread-safe: one {!client} per domain (the chaos end-to-end test
    gives each of its concurrent callers its own). *)

type policy = {
  attempts : int;  (** total tries per {!call}, >= 1 *)
  backoff_ms : int;  (** first backoff step *)
  backoff_max_ms : int;  (** backoff ceiling *)
  timeout_ms : int;
      (** per-attempt read timeout; 0 = none.  An engine request waits at
          least its deadline plus a margin ({!attempt_timeout_ms}). *)
  seed : int;  (** jitter determinism *)
}

(** 5 attempts, 20 ms doubling to 2 s, 10 s deadline. *)
val default_policy : policy

type client

val make : ?host:string -> ?policy:policy -> port:int -> unit -> client

(** [attempt_timeout_ms policy doc] is the read timeout of one attempt
    at sending [doc].  Ping, stats and health get [policy.timeout_ms].
    Any other request (an engine op) gets at least its ["deadline"]
    field, else {!Request.daemon_deadline}, plus a fixed 5 s margin, so
    that the daemon's [out-of-budget] answer, not a client timeout, ends
    a slow request.  A [timeout_ms] of 0 stays 0 (no timeout). *)
val attempt_timeout_ms : policy -> Json.t -> int

(** [call client doc] sends [doc] with retries per the policy, each
    attempt under {!attempt_timeout_ms}.  [Ok]
    responses (including non-retryable failure envelopes) come back
    as-is; [Error "exhausted: ..."] after the final attempt fails. *)
val call : client -> Json.t -> (Json.t, string) result

(** Close the underlying connection (the next {!call} reconnects). *)
val shutdown : client -> unit

type stats = {
  calls : int;
  attempts_made : int;
  retries : int;  (** attempts beyond each call's first *)
  reconnects : int;  (** connects beyond the client's first *)
  timeouts : int;
  conn_resets : int;
  parse_errors : int;
  connect_errors : int;
  server_busy : int;  (** retryable failure envelopes seen *)
  retry_after_honored : int;  (** times a server [retry_after_ms] was obeyed *)
}

val stats : client -> stats
