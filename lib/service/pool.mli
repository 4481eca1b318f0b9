(** A fixed pool of OCaml domains draining a bounded job queue.

    The daemon's concurrency backbone: engine computations are submitted
    as jobs, [workers] domains execute them, and the queue bound is the
    admission-control valve — a full queue {e rejects} new work
    immediately instead of buffering unboundedly, which is what lets the
    server answer "overloaded" while it still has the breath to say so.

    Shutdown is a drain: no new jobs are accepted, every queued and
    running job completes, then the workers are joined.  Jobs must honour
    the cooperative stop signal they are given by the server (they poll a
    stop flag); the pool itself never kills a domain.

    A job that raises is contained: the exception is recorded in the
    pool's error counter and the worker survives to take the next job. *)

type t

(** [create ~workers ~queue_cap] spawns the worker domains immediately.
    @raise Invalid_argument unless both are positive. *)
val create : workers:int -> queue_cap:int -> t

type submit_result =
  | Accepted
  | Overloaded  (** queue at capacity — backpressure, try again later *)
  | Shutting_down  (** drain in progress — no new work *)

(** [submit t job] enqueues [job] for some worker, unless the queue is
    full or the pool is draining.  Never blocks. *)
val submit : t -> (unit -> unit) -> submit_result

(** Jobs currently queued (not yet picked up by a worker).  Also mirrored
    to the ["service.queue.depth"] gauge on every transition. *)
val queue_depth : t -> int

(** Jobs whose execution raised (the exceptions were swallowed after
    counting — see the containment contract above). *)
val job_errors : t -> int

(** Configured worker count. *)
val workers : t -> int

(** Drain and join: blocks until every accepted job has run and all
    workers have exited.  Idempotent. *)
val shutdown : t -> unit
