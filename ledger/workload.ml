(* The four workloads: which requests each one sends, in which order, and
   what a correct answer to each looks like.

   A workload is a catalog of keys (one request each) plus a seeded
   sequence mapping request index -> key.  The daemon only ever sees the
   generated requests; the seed changes which keys are drawn and their
   order, never the mix, so any prefix of any seed's sequence puts the
   same kind of work on the engine.  That is what keeps a time-bounded run
   comparable across seeds and across commits. *)

module Json = Ts_analysis.Json
module Request = Ts_service.Request

type t = {
  name : string;
  why : string;
  key : seed:int -> int -> int;  (** request index -> catalog key *)
  limit : int;
      (** requests a run may send before the sequence would repeat a key
          that must miss the cache *)
  request : int -> Request.t;  (** catalog key -> request, id 0 *)
  logged : int;
      (** keys [0, logged) are written to the store before the daemon
          starts *)
  warmed : int;
      (** keys [0, warmed) are served once, untimed, before the timed
          phase *)
  provenance : int -> string -> bool;
      (** whether a served ["provenance"] is right for a key *)
  hit_ratio : float option;  (** the cache hit ratio a correct run shows *)
  prefix : int;  (** requests the traced run replays in process *)
  window : int;
      (** requests per window of the timed phase; on the miss workloads a
          multiple of the number of shapes, so every window holds the
          same mix *)
  connections : int;
      (** closed-loop callers, one connection each: one on the miss
          workloads, whose requests each keep a core busy for ~100 ms; two
          on the cached ones, so that the daemon's event loop finds the
          next request waiting instead of sleeping between requests *)
}

(* A deterministic, platform-independent draw for (seed, index, salt). *)
let draw ~seed ~salt i = Hashtbl.hash (seed, salt, i)

(* Low-discrepancy sequence over [variants] request shapes x [range]
   parameter values.  Request i takes shape [order.(i mod variants)], so
   every block of [variants] requests holds one of each shape; its
   parameter walks the range by a golden-ratio step ([step] coprime to
   [range]) from a seeded offset, so every prefix covers the range evenly
   and no key repeats before [variants * range] requests. *)
let weyl ~variants ~range ~step ~seed i =
  let order =
    List.init variants Fun.id
    |> List.sort (fun a b ->
           compare (draw ~seed ~salt:1 a, a) (draw ~seed ~salt:1 b, b))
    |> Array.of_list
  in
  let v = order.(i mod variants) in
  let offset = draw ~seed ~salt:2 v mod range in
  (v * range) + ((offset + (i / variants * step)) mod range)

let base = Request.defaults

(* witness-miss: five shapes, so the median falls inside the middle
   shape's cluster rather than on a boundary between two clusters. *)
let witness_shapes =
  [|
    { base with Request.op = Request.Witness; protocol = "racing" };
    { base with Request.op = Request.Witness; protocol = "racing-rand" };
    { base with Request.op = Request.Witness; protocol = "racing"; certificate = true };
    { base with Request.op = Request.Witness; protocol = "racing-rand"; certificate = true };
    { base with Request.op = Request.Valency; protocol = "racing" };
  |]

let witness_miss =
  let range = 200 in
  {
    name = "witness-miss";
    why =
      "distinct witness/valency keys at n=3: every request misses cache and \
       store and the time goes to Valency searches under Theorem 1";
    key = weyl ~variants:(Array.length witness_shapes) ~range ~step:123;
    limit = Array.length witness_shapes * range;
    request =
      (fun k ->
        { (witness_shapes.(k / range)) with n = 3; horizon = Some (30 + (k mod range)) });
    logged = 0;
    warmed = 0;
    provenance = (fun _ p -> p = "fresh");
    hit_ratio = Some 0.;
    prefix = 48;
    window = 10;
    connections = 1;
  }

let check_shapes =
  [|
    { base with Request.op = Request.Check; protocol = "racing" };
    { base with Request.op = Request.Check; protocol = "racing-rand" };
    { base with Request.op = Request.Resilient; protocol = "racing"; t_faults = 2 };
  |]

let check_miss =
  let range = 301 in
  {
    name = "check-miss";
    why =
      "distinct check/resilient keys at n=3: every request misses and the \
       time goes to Explore, Ckey tables and Config.step; Valency is bypassed";
    key = weyl ~variants:(Array.length check_shapes) ~range ~step:186;
    limit = Array.length check_shapes * range;
    request =
      (fun k ->
        { (check_shapes.(k / range)) with n = 3; max_configs = 100 + (k mod range) });
    logged = 0;
    warmed = 0;
    provenance = (fun _ p -> p = "fresh");
    hit_ratio = Some 0.;
    prefix = 48;
    window = 9;
    connections = 1;
  }

let hit_keys = 64

let hit_warm =
  {
    name = "hit-warm";
    why =
      "64 cheap witness keys that fit the cache: every timed request is a \
       hit answered on the event loop, so only the serving path is measured";
    key = (fun ~seed i -> draw ~seed ~salt:3 i mod hit_keys);
    limit = max_int;
    request =
      (fun k ->
        { base with Request.op = Request.Witness; n = 2; horizon = Some (20 + k) });
    logged = 0;
    warmed = hit_keys;
    provenance = (fun _ p -> p = "cached");
    hit_ratio = Some 1.;
    prefix = 20_000;
    window = 4096;
    connections = 2;
  }

(* restart-mixed: keys are cheap n=2 witnesses.  Keys [0, logged) are in
   the log the daemon restarts on; every other key is new.  Varying the
   request's seed field (cache-key material the witness ignores) gives as
   many distinct cheap keys as needed. *)
let restart_logged = 8_000

let restart_protocols = [| "racing"; "racing-rand"; "swap" |]

let restart_mixed =
  {
    name = "restart-mixed";
    why =
      "restart on an 8000-record log; 80% logged keys (recovered, then \
       cached or evicted) and 20% new keys computed and fsynced to the store";
    key =
      (fun ~seed i ->
        let h = draw ~seed ~salt:4 i in
        if h mod 5 = 0 then restart_logged + (draw ~seed ~salt:5 0 mod 1_000_000) + i
        else h / 5 mod restart_logged);
    limit = max_int;
    request =
      (fun k ->
        {
          base with
          Request.op = Request.Witness;
          protocol = restart_protocols.(k mod 3);
          n = 2;
          horizon = Some (20 + (k / 3 mod 100));
          seed = k / 300;
        });
    logged = restart_logged;
    warmed = 0;
    provenance =
      (fun k p ->
        if k < restart_logged then p = "recovered" || p = "cached" else p = "fresh");
    hit_ratio = None;
    prefix = 20_000;
    window = 2000;
    connections = 2;
  }

let all = [ witness_miss; check_miss; hit_warm; restart_mixed ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- wire form -------------------------------------------------------- *)

let frame_of (r : Request.t) =
  let payload = Json.to_string (Request.to_json r) in
  string_of_int (String.length payload) ^ "\n" ^ payload

(* [envelope ~id doc] splits a success envelope, as [Response.envelope_raw]
   lays it out, into its provenance and the exact served result bytes. *)
let envelope ~id doc =
  let head = Printf.sprintf "{\"id\":%d,\"ok\":true,\"provenance\":\"" id in
  let hl = String.length head and dl = String.length doc in
  if dl < hl || String.sub doc 0 hl <> head then
    Error ("not an ok envelope for this id: " ^ String.sub doc 0 (min dl 160))
  else
    match String.index_from_opt doc hl '"' with
    | None -> Error "unterminated provenance"
    | Some q -> (
      let provenance = String.sub doc hl (q - hl) in
      let marker = ",\"result\":" in
      let ml = String.length marker in
      let rec matches i j = j = ml || (doc.[i + j] = marker.[j] && matches i (j + 1)) in
      let rec find i =
        if i + ml > dl then None else if matches i 0 then Some (i + ml) else find (i + 1)
      in
      match find q with
      | Some r when doc.[dl - 1] = '}' ->
        Ok (provenance, String.sub doc r (dl - 1 - r))
      | _ -> Error "no result in envelope")

(* --- correctness of one answer ---------------------------------------- *)

(* [check_body r body] holds when [body] is a complete, correct answer to
   [r]: a verified witness writing >= n-1 registers (with a certificate
   that passes the micro-checker when one was asked for), a clean bounded
   check, or a bivalent initial configuration. *)
let check_body (r : Request.t) body =
  let ( let* ) = Result.bind in
  let field k doc = Option.value ~default:Json.Null (Json.member k doc) in
  let expect what ok = if ok then Ok () else Error what in
  let* doc = Json.of_string body in
  match r.Request.op with
  | Request.Witness ->
    let* () = expect "witness not complete" (field "status" doc = Json.Str "complete") in
    let* () = expect "witness not verified" (field "verified" doc = Json.Bool true) in
    let* () =
      expect "space bound below n-1"
        (match field "space_bound" doc with
         | Json.Int b -> b >= r.Request.n - 1
         | _ -> false)
    in
    if not r.Request.certificate then Ok ()
    else (
      match Json.member "certificate" doc with
      | None -> Error "certificate missing"
      | Some c ->
        Result.map_error
          (fun e -> "certificate rejected: " ^ e)
          (Ts_cert.Cert.microcheck_string (Json.to_string c)))
  | Request.Check | Request.Resilient ->
    let* () = expect "verdict not clean" (field "verdict" doc = Json.Str "clean") in
    expect "exploration stopped early"
      (field "stopped" doc = Json.Null && field "worker_errors" doc = Json.List [])
  | Request.Valency -> expect "not bivalent" (field "class" doc = Json.Str "bivalent")
  | Request.Analyze | Request.Ping | Request.Stats | Request.Health -> Ok ()
