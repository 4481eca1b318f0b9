open Ts_model
module Obs = Ts_obs.Obs

exception Horizon_exceeded of string

type stats = {
  searches : int;
  nodes_expanded : int;
  memo_hits : int;
  memo_misses : int;
  peak_frontier : int;
}

(* Memo keys: packed configuration + participant mask + target value. *)
module Memo_key = struct
  type t = {
    ck : Ckey.t;
    mask : int;
    v : int;
  }

  let equal a b = a.mask = b.mask && a.v = b.v && Ckey.equal a.ck b.ck
  let hash { ck; mask; v } = (Ckey.hash ck + (mask * 0x9e3779b9) + (v * 0x85ebca6b)) land max_int
end

module Memo = Hashtbl.Make (Memo_key)

type 's t = {
  proto : 's Protocol.t;
  horizon : int;
  budget : Budget.t;
  memo : Execution.event list option Memo.t;
  pk : 's Ckey.packer;  (* packer for memo keys *)
  mutable searches : int;
  mutable nodes_expanded : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable peak_frontier : int;
}

let create ?(budget = Budget.unlimited) proto ~horizon =
  {
    proto;
    horizon;
    budget;
    memo = Memo.create 4096;
    pk = Ckey.packer proto;
    searches = 0;
    nodes_expanded = 0;
    memo_hits = 0;
    memo_misses = 0;
    peak_frontier = 0;
  }

let protocol t = t.proto
let horizon t = t.horizon
let budget t = t.budget
let searches t = t.searches

let stats t =
  {
    searches = t.searches;
    nodes_expanded = t.nodes_expanded;
    memo_hits = t.memo_hits;
    memo_misses = t.memo_misses;
    peak_frontier = t.peak_frontier;
  }

let zero = Value.int 0
let one = Value.int 1

(* Does some process hold decision [v]?  A top-level loop, not
   [Array.exists]: a closure over [v] would be allocated per node. *)
let rec decided_from (procs : _ Config.status array) v i =
  i < Array.length procs
  && ((match procs.(i) with Config.Decided w -> Value.equal v w | Config.Running _ -> false)
      || decided_from procs v (i + 1))

let decided_here (cfg : _ Config.t) v = decided_from cfg.procs v 0

(* One breadth-first search over the P-only graph from [cfg] for every
   value in [vs]: each dequeued node is tested against the values still
   wanted, and the first dequeued decider of each is recorded.  The search
   stops once every wanted value is found or the frontier is exhausted.

   BFS visits every configuration at its shortest P-only distance, so
   together with the visited table the search is *complete* for executions
   of length <= horizon, and every returned witness is one of minimal
   length.  Negative answers still only mean "not within horizon".  The
   FIFO order and the visited table do not depend on [vs], so the witness
   for [v] is the one a search for [v] alone returns, and a search for
   several values dequeues the max, not the sum, of their node counts.

   Effect-free on [t]'s mutable fields — it builds its own packer and
   visited table, keyed by packed configurations — so counters come back
   as data and are folded into [t] by [record]. *)
let search t cfg ps vs =
  (* explicit enter/close (not with_span): this is the engine's hottest
     entry point and the closure must not allocate while disarmed *)
  let sp = Obs.enter ~cat:"valency" "valency.search" in
  let pk = Ckey.packer t.proto in
  let visited = Ckey.Tbl.create 1024 in
  let q = Queue.create () in
  Queue.add (cfg, [], 0) q;
  Ckey.Tbl.add visited (Ckey.pack pk cfg) ();
  let wanted = Array.of_list vs in
  let found = Array.make (Array.length wanted) None in
  let missing = ref (Array.length wanted) in
  let nodes = ref 0 in
  let peak = ref 1 in
  (* an exception (a tripped budget, a raising protocol step) is captured,
     not raised: the span must close and the caller's [record] must
     account this search's work first *)
  let stop = ref None in
  (try
     while not (Queue.is_empty q) do
       let cfg, rev_sched, depth = Queue.pop q in
       incr nodes;
       Budget.charge t.budget 1;
       for i = 0 to Array.length wanted - 1 do
         if Option.is_none found.(i) && decided_here cfg wanted.(i) then begin
           found.(i) <- Some (List.rev rev_sched);
           decr missing
         end
       done;
       if !missing = 0 then raise Exit;
       if depth < t.horizon then begin
         Execution.iter_successors t.proto cfg ps (fun e cfg' ->
             let key = Ckey.pack pk cfg' in
             (* [add] after a failed [mem]: one bucket scan, and the
                cell goes to the bucket head as [replace] would put it *)
             if not (Ckey.Tbl.mem visited key) then begin
               Ckey.Tbl.add visited key ();
               Queue.add (cfg', e :: rev_sched, depth + 1) q
             end);
         let frontier = Queue.length q in
         if frontier > !peak then peak := frontier
       end
     done
   with
   | Exit -> ()
   | e -> stop := Some e);
  if Obs.tracing () then
    Obs.set_str sp "targets"
      (String.concat "," (List.map (fun v -> string_of_int (Value.to_int v)) vs));
  Obs.set_int sp "nodes" !nodes;
  Obs.set_int sp "peak_frontier" !peak;
  Obs.set_bool sp "decided" (!missing < Array.length wanted);
  Obs.close sp;
  found, !nodes, !peak, !stop

let record t (found, nodes, peak, stop) =
  t.searches <- t.searches + 1;
  t.nodes_expanded <- t.nodes_expanded + nodes;
  if peak > t.peak_frontier then t.peak_frontier <- peak;
  Obs.Metrics.incr "valency.searches";
  Obs.Metrics.incr ~by:nodes "valency.nodes_expanded";
  Obs.Metrics.gauge_max "valency.peak_frontier" peak;
  (* an aborted search has no trustworthy answer: re-raise (after the
     accounting above) and never memoize it *)
  match stop with Some e -> raise e | None -> found

let memo_hit t n =
  t.memo_hits <- t.memo_hits + n;
  Obs.Metrics.incr ~by:n "valency.memo_hits"

let memo_miss t n =
  t.memo_misses <- t.memo_misses + n;
  Obs.Metrics.incr ~by:n "valency.memo_misses"

let memo_key t cfg ps v =
  { Memo_key.ck = Ckey.pack t.pk cfg; mask = Pset.to_mask ps; v = Value.to_int v }

(* [lookup] consults the memo for one probe; [search_one] runs a missed one. *)
let lookup t key =
  let r = Memo.find_opt t.memo key in
  if Option.is_none r then memo_miss t 1 else memo_hit t 1;
  r

let search_one t key cfg ps v =
  let r = (record t (search t cfg ps [ v ])).(0) in
  Memo.replace t.memo key r;
  r

let can_decide t cfg ps v =
  let key = memo_key t cfg ps v in
  match lookup t key with Some r -> r | None -> search_one t key cfg ps v

type verdict =
  | Bivalent of Execution.event list * Execution.event list
  | Univalent of Value.t * Execution.event list
  | Blocked

let verdict_of = function
  | Some w0, Some w1 -> Bivalent (w0, w1)
  | Some w0, None -> Univalent (zero, w0)
  | None, Some w1 -> Univalent (one, w1)
  | None, None -> Blocked

(* Both probes missing the memo are answered by one joint search. *)
let search_both t k0 k1 cfg ps =
  let found = record t (search t cfg ps [ zero; one ]) in
  Memo.replace t.memo k0 found.(0);
  Memo.replace t.memo k1 found.(1);
  found.(0), found.(1)

let classify t cfg ps =
  let k0 = memo_key t cfg ps zero and k1 = memo_key t cfg ps one in
  match lookup t k0, lookup t k1 with
  | Some r0, Some r1 -> verdict_of (r0, r1)
  | Some r0, None -> verdict_of (r0, search_one t k1 cfg ps one)
  | None, Some r1 -> verdict_of (search_one t k0 cfg ps zero, r1)
  | None, None -> verdict_of (search_both t k0 k1 cfg ps)

(* Yes/no answers need no P-wide witness.  Definition 1 is monotone in P:
   a {p}-only execution is a P-only one, and [search] is complete up to
   the horizon, so a member's solo witness is one the P-wide search would
   also find.  [known] answers from the exact memo entry, then from each
   member's (memoized) solo probe, and is [None] when only the P-wide
   search can tell.  A singleton's solo probe is its exact entry, already
   missed, so it is not asked twice. *)
let known t key cfg ps v =
  match lookup t key with
  | Some r -> Some (Option.is_some r)
  | None ->
    if
      Pset.cardinal ps > 1
      && Pset.exists (fun p -> Option.is_some (can_decide t cfg (Pset.singleton p) v)) ps
    then Some true
    else None

let decides t cfg ps v =
  let key = memo_key t cfg ps v in
  match known t key cfg ps v with
  | Some b -> b
  | None -> Option.is_some (search_one t key cfg ps v)

let is_bivalent t cfg ps =
  let k0 = memo_key t cfg ps zero and k1 = memo_key t cfg ps one in
  match known t k0 cfg ps zero with
  | Some false -> false
  | a0 ->
    (match a0, known t k1 cfg ps one with
     | _, Some false -> false
     | Some _, Some _ -> true
     | Some _, None -> Option.is_some (search_one t k1 cfg ps one)
     | None, Some _ -> Option.is_some (search_one t k0 cfg ps zero)
     | None, None ->
       let w0, w1 = search_both t k0 k1 cfg ps in
       Option.is_some w0 && Option.is_some w1)

let univalent_value t cfg ps =
  match classify t cfg ps with
  | Univalent (v, _) -> Some v
  | Bivalent _ | Blocked -> None

(* --- successor enumeration ---------------------------------------------- *)

(* [search]'s expansion as a list, for the ledger's per-node micro row
   (ledger/micro.ml) and the checker's reference BFS
   (test/suite_checker.ml). *)
let successors_within proto cfg ps =
  let acc = ref [] in
  Execution.iter_successors proto cfg ps (fun e cfg' -> acc := (e, cfg') :: !acc);
  List.rev !acc

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "%d searches over %d nodes, memo %d/%d hit/miss, frontier peak %d"
    s.searches s.nodes_expanded s.memo_hits s.memo_misses s.peak_frontier
