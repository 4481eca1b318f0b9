(** Typed service requests, and their JSON wire form.

    One flat record covers every operation; fields an operation does not
    use are simply ignored by the dispatcher (but still participate in the
    cache key, so two requests that differ only in an ignored field are
    distinct cache entries — harmless, and far simpler to reason about
    than per-op key schemas). *)

type op =
  | Witness  (** run the Zhu Theorem-1 adversary *)
  | Check  (** bounded consensus model-check *)
  | Resilient  (** t-resilient termination under crash-stop faults *)
  | Valency  (** classify the canonical initial configuration *)
  | Analyze  (** static-analysis passes of a registry entry *)
  | Ping  (** liveness probe; never cached *)
  | Stats  (** daemon/cache counters; never cached *)
  | Health  (** readiness + load snapshot for start-up probes; never cached *)

val op_to_string : op -> string
val op_of_string : string -> op option

type t = {
  id : int;  (** client-chosen correlation id, echoed in the response *)
  op : op;
  protocol : string;  (** catalog name; registry name for [Analyze] *)
  n : int;  (** number of processes *)
  horizon : int option;  (** valency-oracle depth; [None] = escalate *)
  seed : int;  (** reserved for randomized workloads; cache-key material *)
  max_configs : int;
  max_depth : int;
  solo_budget : int;
  check_solo : bool;
  t_faults : int;  (** crash-fault tolerance for [Resilient] *)
  certificate : bool;
      (** request an embedded {!Ts_cert.Cert} certificate with the answer
          ([Witness]/[Check]/[Resilient]); cache-key material *)
  deadline : float option;  (** per-request wall-clock budget, seconds *)
  max_nodes : int option;  (** per-request search-node budget *)
}

(** The wall-clock deadline, in seconds (30), that the daemon applies to
    a request carrying none unless [tightspace serve --deadline] sets
    another. *)
val daemon_deadline : float

(** The defaults of an absent field.  The CLI's engine flags take their
    defaults from here too, so a daemon query and a one-shot CLI run of
    the same operation compute the same answer. *)
val defaults : t

(** [validate r] is [Ok r] unless [r]'s ["horizon"], ["max_configs"],
    ["max_depth"] or ["solo_budget"] is negative; the [Error] names the
    first such field.  A negative count would yield a complete, hence
    cached, but meaningless answer.  {!of_json} ends with this rule, and
    the CLI applies it to the request it builds from its flags. *)
val validate : t -> (t, string) result

(** [of_json doc] decodes a request object.  Unknown fields are ignored
    (forward compatibility); a missing ["op"], an unknown op name or a
    type-mismatched field is an [Error] naming the field, and so is any
    request that {!validate} refuses. *)
val of_json : Ts_analysis.Json.t -> (t, string) result

(** [to_json r] is the wire form; [of_json (to_json r) = Ok r] whenever
    {!validate} accepts [r]. *)
val to_json : t -> Ts_analysis.Json.t
