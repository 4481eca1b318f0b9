open Ts_model
open Ts_core
module Obs = Ts_obs.Obs

type violation =
  | Agreement_violation of { inputs : Value.t array; schedule : Execution.event list; values : Value.t list }
  | Validity_violation of { inputs : Value.t array; schedule : Execution.event list; value : Value.t }
  | Solo_stuck of { inputs : Value.t array; schedule : Execution.event list; pid : int }
  | Crash_stuck of {
      inputs : Value.t array;
      schedule : Execution.event list;
      crashed : int list;
      survivors : int list;
    }

type stats = {
  configs_explored : int;
  truncated : bool;
  deepest : int;
  table_hits : int;
  table_misses : int;
  peak_frontier : int;
  solo_cache_hits : int;
  solo_cache_misses : int;
}

let empty_stats =
  {
    configs_explored = 0;
    truncated = false;
    deepest = 0;
    table_hits = 0;
    table_misses = 0;
    peak_frontier = 0;
    solo_cache_hits = 0;
    solo_cache_misses = 0;
  }

let merge_stats a b =
  {
    configs_explored = a.configs_explored + b.configs_explored;
    truncated = a.truncated || b.truncated;
    deepest = max a.deepest b.deepest;
    table_hits = a.table_hits + b.table_hits;
    table_misses = a.table_misses + b.table_misses;
    peak_frontier = max a.peak_frontier b.peak_frontier;
    solo_cache_hits = a.solo_cache_hits + b.solo_cache_hits;
    solo_cache_misses = a.solo_cache_misses + b.solo_cache_misses;
  }

type result = {
  verdict : (unit, violation) Stdlib.result;
  stats : stats;
  stopped : Budget.breach option;
}

(* Mutable probe counters of one search, for the profiler only: the
   outer search's own counts come from [Execution.bfs]. *)
type counters = {
  mutable probes : int;
  mutable probe_nodes : int;
  mutable memo_hits : int;
}

let fresh_counters () = { probes = 0; probe_nodes = 0; memo_hits = 0 }

let stats_of (c : Execution.counts) ~stopped counters =
  {
    configs_explored = c.nodes;
    truncated = c.truncated || stopped;
    deepest = c.deepest;
    table_hits = c.hits;
    table_misses = c.misses;
    peak_frontier = c.peak_frontier;
    solo_cache_hits = 0;
    solo_cache_misses = counters.probes;
  }

(* --- group-termination probes ------------------------------------------ *)

(* What the probes of one search have learned about a projected node (see
   [Ckey.pack_group]): no member decides within [lo] member steps, and
   some member decides within [hi] ([max_int] until known).  Only
   non-deciding nodes get an entry, so [lo = 0] is always true. *)
type bounds = {
  mutable lo : int;
  mutable hi : int;
}

type memo = {
  bounds : bounds Ckey.Salted_tbl.t;
  loc : string;  (* race-detector location *)
}

let create_memo ~size name =
  { bounds = Ckey.Salted_tbl.create size; loc = Obs.fresh_loc name }

(* Per-vector tables are sized to the budget, not a fixed large block:
   small searches (a few dozen configurations per input vector) shouldn't
   pay for 4096-bucket tables they never fill. *)
let table_size ~max_configs = max 64 (min 4096 (max_configs / 8))

(* One node of a probe's BFS tree; [parent] links a winner back to the
   probe's root. *)
type 's probe_node = {
  cfg : 's Config.t;
  key : Ckey.Salted.t;
  depth : int;
  parent : 's probe_node option;
}

(* Has a member of the raw mask [mask] decided?  A top-level loop: a
   closure per dequeued probe node is what [Pset.exists] would cost. *)
let rec member_decided (procs : _ Config.status array) mask p =
  mask <> 0
  && ((mask land 1 <> 0
       && match procs.(p) with Config.Decided _ -> true | Config.Running _ -> false)
      || member_decided procs (mask lsr 1) (p + 1))

let record memo key update =
  match Ckey.Salted_tbl.find_opt memo.bounds key with
  | Some b -> update b
  | None ->
    let b = { lo = 0; hi = max_int } in
    update b;
    Ckey.Salted_tbl.add memo.bounds key b

(* A probe node's fate once dequeued [left] steps short of its budget:
   [h >= 0] if a member decides within [h] steps, [pruned] if none can,
   [expand] if only its successors can tell.  Counts the node, charges
   [guard] and consults [memo]. *)
let pruned = -1
let expand = -2

let settle memo counters guard (procs : _ Config.status array) key mask ~left =
  counters.probe_nodes <- counters.probe_nodes + 1;
  Budget.charge guard 1;
  if member_decided procs mask 0 then 0
  else if left <= 0 then pruned
  else
    match Ckey.Salted_tbl.find_opt memo.bounds key with
    | Some b when b.hi <= left ->
      counters.memo_hits <- counters.memo_hits + 1;
      b.hi
    | Some b when b.lo >= left ->
      counters.memo_hits <- counters.memo_hits + 1;
      pruned
    | _ -> expand

(* The BFS behind a probe whose root [root] settled as [expand]. *)
let search_group proto pk root ps mask ~budget ~guard ~memo ~counters =
  (* node key -> depth; a failed probe has dequeued every entry *)
  let visited = Ckey.Salted_tbl.create 64 in
  let q = Queue.create () in
  let push cfg depth parent =
    let key = Ckey.Salted.make (Ckey.pack_group pk cfg ps) mask in
    if not (Ckey.Salted_tbl.mem visited key) then begin
      Ckey.Salted_tbl.add visited key depth;
      Queue.add { cfg; key; depth; parent } q
    end
  in
  (* the memo may prune a dequeued node, so no commuting step is skipped *)
  let successors n =
    let depth = n.depth + 1 and parent = Some n in
    Execution.iter_successors proto n.cfg ps (fun _ cfg' -> push cfg' depth parent)
  in
  Ckey.Salted_tbl.add visited root.key 0;
  successors root;
  (* [Some (n, h)]: a member decides within [h] steps of node [n] *)
  let rec search () =
    if Queue.is_empty q then None
    else begin
      let n = Queue.pop q in
      let h = settle memo counters guard n.cfg.Config.procs n.key mask ~left:(budget - n.depth) in
      if h >= 0 then Some (n, h)
      else begin
        if h = expand then successors n;
        search ()
      end
    end
  in
  match search () with
  | Some (winner, h) ->
    let total = winner.depth + h in
    let rec up = function
      | None -> ()
      | Some n ->
        record memo n.key (fun b -> b.hi <- min b.hi (total - n.depth));
        up n.parent
    in
    (* the winner's own entry (if any) already holds [h] *)
    up winner.parent;
    true
  | None ->
    (* nodes at the budget's edge would only learn [lo = 0] *)
    Ckey.Salted_tbl.iter
      (fun key depth ->
        if depth < budget then record memo key (fun b -> b.lo <- max b.lo (budget - depth)))
      visited;
    false

(* Can some process of [ps], with only (undecided) members of [ps] taking
   steps from [cfg], decide within [budget] steps for some resolution of
   the coin flips?  BFS over schedules with a visited set (BFS + visited is
   complete for "reachable within budget").  [Pset.singleton p] gives the
   classic solo-termination probe; larger sets give the survivor-group
   probes of the t-resilience check.

   Non-members never move and the goal test never looks at them, so the
   answer from a node depends only on its projection onto [ps]: nodes are
   keyed by [Ckey.pack_group], salted with the mask, and [memo] carries
   distance bounds from earlier probes of the same search.  A node
   dequeued at depth [d] answers at once if [hi <= budget - d] and is not
   expanded if [lo >= budget - d].  A success sets [hi] along the winner's
   parent chain; a failure sets [lo = budget - d] on every dequeued node
   (each lies [d] steps from a root that cannot decide within [budget]).
   A probe stopped by [Budget.Exhausted] records nothing.

   The root is settled before any search is built: most probes end there,
   on a decided member or a memo bound, and such a probe records nothing
   in the search either (its winner has no parent, and a pruned root's
   [lo] already covers the budget). *)
let probe_group proto pk cfg ps ~budget ~guard ~memo ~counters =
  counters.probes <- counters.probes + 1;
  let mask = Pset.to_mask ps in
  let key = Ckey.Salted.make (Ckey.pack_group pk cfg ps) mask in
  Obs.access ~loc:memo.loc Obs.Read ~atomic:false;
  let h = settle memo counters guard cfg.Config.procs key mask ~left:budget in
  let answer =
    if h <> expand then h >= 0
    else
      search_group proto pk { cfg; key; depth = 0; parent = None } ps mask ~budget ~guard
        ~memo ~counters
  in
  Obs.access ~loc:memo.loc Obs.Write ~atomic:false;
  answer

(* A self-contained probe context outside any search: replay and the
   differential tests. *)
type 's probes = {
  proto : 's Protocol.t;
  pk : 's Ckey.packer;
  memo : memo;
  counters : counters;
}

let probes proto =
  { proto; pk = Ckey.packer proto; memo = create_memo ~size:256 "explore.probe_memo";
    counters = fresh_counters () }

let group_can_decide t cfg ps ~budget =
  probe_group t.proto t.pk cfg ps ~budget ~guard:Budget.unlimited ~memo:t.memo
    ~counters:t.counters

exception Found of violation

(* One input vector's search ([Execution.bfs] over every process's steps
   from the vector's initial configuration) in an ["explore.vector"] span,
   self-contained: its own packer [pk] (shared with its probes), tables,
   budget and counters.  [visit] is called on every dequeued
   configuration and raises [Found] to stop with a violation.  This is
   the unit of parallelism — runs of
   different input vectors share nothing, so fanning them out over
   domains produces bit-identical verdicts and stats.  A raising protocol
   callback must not leak the span (its close runs on this domain's
   parent stack). *)
let search_vector proto pk ~inputs ~max_configs ~max_depth ~guard ~counters ~visit =
  let sp = Obs.enter ~cat:"explore" "explore.vector" in
  let c, stop =
    Execution.bfs pk proto (Config.initial proto ~inputs)
      (Pset.all proto.Protocol.num_processes)
      ~max_depth ~max_nodes:max_configs ~table_size:(table_size ~max_configs)
      ~loc:"explore.visited"
      ~charge:(fun () -> Budget.charge guard 1)
      ~visit
  in
  let verdict, stopped =
    match stop with
    | None -> Ok (), None
    | Some (Found v) -> Error v, None
    | Some (Budget.Exhausted b) -> Ok (), Some b
    | Some e ->
      Obs.close sp;
      raise e
  in
  let stats = stats_of c ~stopped:(stopped <> None) counters in
  Obs.set_int sp "configs" stats.configs_explored;
  Obs.set_int sp "deepest" stats.deepest;
  Obs.set_bool sp "truncated" stats.truncated;
  Obs.set_bool sp "violation" (Result.is_error verdict);
  Obs.set_int sp "skipped" c.skipped;
  Obs.close sp;
  Obs.Metrics.incr "explore.vectors";
  Obs.Metrics.incr ~by:stats.configs_explored "explore.configs_explored";
  Obs.Metrics.incr ~by:stats.table_hits "explore.table_hits";
  Obs.Metrics.incr ~by:c.skipped "explore.steps_skipped";
  Obs.Metrics.incr ~by:stats.table_misses "explore.table_misses";
  Obs.Metrics.incr ~by:counters.probes "explore.solo_cache_misses";
  Obs.Metrics.incr ~by:counters.probe_nodes "explore.probe_nodes";
  Obs.Metrics.incr ~by:counters.memo_hits "explore.probe_memo_hits";
  Obs.Metrics.gauge_max "explore.peak_frontier" stats.peak_frontier;
  Obs.Metrics.gauge_max "explore.deepest" stats.deepest;
  { verdict; stats; stopped }

(* One input vector's consensus-property search. *)
let check_from proto ~k ~inputs ~max_configs ~max_depth ~solo_budget ~check_solo ~guard =
  let counters = fresh_counters () in
  let memo =
    create_memo ~size:(if check_solo then table_size ~max_configs else 1) "explore.solo_memo"
  in
  let pk = Ckey.packer proto in
  let visit cfg rev_sched =
    let schedule () = List.rev rev_sched in
    let decided = Config.decided_values cfg in
    List.iter
      (fun v ->
        if not (Array.exists (Value.equal v) inputs) then
          raise (Found (Validity_violation { inputs; schedule = schedule (); value = v })))
      decided;
    if List.length decided > k then
      raise (Found (Agreement_violation { inputs; schedule = schedule (); values = decided }));
    if check_solo then
      for p = 0 to proto.Protocol.num_processes - 1 do
        if Config.has_decided cfg p = None
           && not
                (probe_group proto pk cfg (Pset.singleton p) ~budget:solo_budget ~guard
                   ~memo ~counters)
        then raise (Found (Solo_stuck { inputs; schedule = schedule (); pid = p }))
      done;
    true
  in
  search_vector proto pk ~inputs ~max_configs ~max_depth ~guard ~counters ~visit

(* Fan one self-contained per-vector search out over the input vectors and
   reassemble.  The fold walks the per-vector outcomes in input order and
   returns at the first violation, re-raising the exception of the first
   vector that raised before it.  Serially the outcomes are produced
   lazily, so the search stops at that vector; in parallel every vector
   runs, and the fold reports exactly what the serial run reports. *)
let run_vectors ~domains run inputs_list =
  let outcomes =
    if domains <= 1 then
      Seq.map (fun inputs -> Ok (run inputs)) (List.to_seq inputs_list)
    else List.to_seq (Par.map_list_outcomes ~domains run inputs_list)
  in
  let rec fold acc stopped outcomes =
    match outcomes () with
    | Seq.Nil -> { verdict = Ok (); stats = acc; stopped }
    | Seq.Cons (Error e, _) -> raise e
    | Seq.Cons (Ok r, rest) ->
      let acc = merge_stats acc r.stats in
      let stopped = if stopped = None then r.stopped else stopped in
      (match r.verdict with
       | Error _ -> { r with stats = acc; stopped }
       | Ok () -> fold acc stopped rest)
  in
  fold empty_stats None outcomes

let check_set_agreement ?(domains = 1) ?(budget = Budget.unlimited) ~k proto
    ~inputs_list ~max_configs ~max_depth ~solo_budget ~check_solo =
  run_vectors ~domains
    (fun inputs ->
      check_from proto ~k ~inputs ~max_configs ~max_depth ~solo_budget ~check_solo
        ~guard:budget)
    inputs_list

let check_consensus ?domains ?budget proto =
  check_set_agreement ?domains ?budget ~k:1 proto

(* --- instance size ----------------------------------------------------- *)

let max_n = 16

let refuse_large_n n =
  if n > max_n then
    invalid_arg (Printf.sprintf "n = %d is above the check/resilient limit of %d" n max_n)

(* --- crash-fault resilience ------------------------------------------- *)

(* All process subsets of size [t], as Pset masks in increasing mask
   order.  n <= 62 (Pset's representation bound), and t-resilience checks
   are meant for small n, so plain mask enumeration is fine. *)
let subsets_of_size n t =
  let rec go mask acc =
    if mask < 0 then acc
    else
      go (mask - 1)
        (let rec popcount m c = if m = 0 then c else popcount (m land (m - 1)) (c + 1) in
         if popcount mask 0 = t then
           Pset.filter (fun p -> mask land (1 lsl p) <> 0) (Pset.all n) :: acc
         else acc)
  in
  go ((1 lsl n) - 1) []

(* One input vector's t-resilience search: from every reachable
   configuration, after crash-stopping any set of exactly [t] processes
   (smaller crash sets only enlarge the survivor group, and a group that
   contains a live one is live), the surviving group must still be able to
   reach a decision on its own within [solo_budget] steps. *)
let check_resilient_from proto ~t ~inputs ~max_configs ~max_depth ~solo_budget ~guard =
  let n = proto.Protocol.num_processes in
  if t < 0 || t >= n then
    invalid_arg "Explore.check_t_resilient: need 0 <= t <= n-1";
  let crash_sets = subsets_of_size n t in
  let counters = fresh_counters () in
  let memo = create_memo ~size:(table_size ~max_configs) "explore.group_memo" in
  let pk = Ckey.packer proto in
  let visit cfg rev_sched =
    List.iter
      (fun f ->
        let survivors = Pset.diff (Pset.all n) f in
        if not (probe_group proto pk cfg survivors ~budget:solo_budget ~guard ~memo
                  ~counters)
        then
          raise
            (Found
               (Crash_stuck
                  {
                    inputs;
                    schedule = List.rev rev_sched;
                    crashed = Pset.to_list f;
                    survivors = Pset.to_list survivors;
                  })))
      crash_sets;
    true
  in
  search_vector proto pk ~inputs ~max_configs ~max_depth ~guard ~counters ~visit

let check_t_resilient ?(domains = 1) ?(budget = Budget.unlimited) ~t proto ~inputs_list
    ~max_configs ~max_depth ~solo_budget =
  refuse_large_n proto.Protocol.num_processes;
  run_vectors ~domains
    (fun inputs ->
      check_resilient_from proto ~t ~inputs ~max_configs ~max_depth ~solo_budget
        ~guard:budget)
    inputs_list

(* --- counterexample replay -------------------------------------------- *)

let values_equal xs ys =
  List.length xs = List.length ys && List.for_all2 Value.equal xs ys

(* A reported violation must survive an independent replay: re-apply its
   schedule step by step ([Execution.apply] is [Config.step] folded) from
   the initial configuration and re-check the claimed property failure. *)
let replay ~solo_budget proto violation =
  Obs.with_span ~cat:"explore" "explore.replay" @@ fun _sp ->
  let apply inputs schedule =
    match Execution.apply proto (Config.initial proto ~inputs) schedule with
    | cfg, _ -> Ok cfg
    | exception exn -> Error ("schedule does not replay: " ^ Printexc.to_string exn)
  in
  let stuck_group inputs schedule group what =
    Result.bind (apply inputs schedule) (fun cfg ->
        match Pset.to_list (Pset.filter (fun p -> Config.has_decided cfg p <> None) group) with
        | p :: _ -> Error (Printf.sprintf "p%d decided on replay; %s not stuck" p what)
        | [] ->
          if group_can_decide (probes proto) cfg group ~budget:solo_budget then
            Error (what ^ " can decide on replay")
          else Ok ())
  in
  match violation with
  | Agreement_violation { inputs; schedule; values } ->
    Result.bind (apply inputs schedule) (fun cfg ->
        if values_equal (Config.decided_values cfg) values then Ok ()
        else Error "replayed configuration decides a different value set")
  | Validity_violation { inputs; schedule; value } ->
    Result.bind (apply inputs schedule) (fun cfg ->
        if not (List.exists (Value.equal value) (Config.decided_values cfg)) then
          Error "claimed invalid value not decided on replay"
        else if Array.exists (Value.equal value) inputs then
          Error "claimed invalid value is among the inputs"
        else Ok ())
  | Solo_stuck { inputs; schedule; pid } ->
    stuck_group inputs schedule (Pset.singleton pid) (Printf.sprintf "p%d solo" pid)
  | Crash_stuck { inputs; schedule; survivors; _ } ->
    stuck_group inputs schedule (Pset.of_list survivors) "survivor group"

let binary_inputs n =
  refuse_large_n n;
  let rec go k =
    if k = 0 then [ [] ]
    else
      let rest = go (k - 1) in
      List.concat_map (fun tl -> [ 0 :: tl; 1 :: tl ]) rest
  in
  List.map (fun bits -> Array.of_list (List.map Value.int bits)) (go n)

let violation_kind = function
  | Agreement_violation _ -> "agreement"
  | Validity_violation _ -> "validity"
  | Solo_stuck _ -> "solo-termination"
  | Crash_stuck _ -> "resilience"

let violation_inputs = function
  | Agreement_violation { inputs; _ }
  | Validity_violation { inputs; _ }
  | Solo_stuck { inputs; _ }
  | Crash_stuck { inputs; _ } -> inputs

let violation_schedule = function
  | Agreement_violation { schedule; _ }
  | Validity_violation { schedule; _ }
  | Solo_stuck { schedule; _ }
  | Crash_stuck { schedule; _ } -> schedule

let pp_stats ppf s =
  Fmt.pf ppf
    "%d configs (deepest %d%s), frontier peak %d, table %d/%d hit/miss, solo cache %d/%d"
    s.configs_explored s.deepest
    (if s.truncated then ", truncated" else ", exhaustive")
    s.peak_frontier s.table_hits s.table_misses s.solo_cache_hits s.solo_cache_misses

let pp_violation ppf = function
  | Agreement_violation { inputs; values; schedule } ->
    Fmt.pf ppf "agreement violated: inputs=[%a] decided {%a} after %d steps"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      Fmt.(list ~sep:comma Value.pp) values
      (List.length schedule)
  | Validity_violation { inputs; value; schedule } ->
    Fmt.pf ppf "validity violated: inputs=[%a] decided %a after %d steps"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      Value.pp value (List.length schedule)
  | Solo_stuck { inputs; pid; schedule } ->
    Fmt.pf ppf
      "solo termination violated: inputs=[%a], p%d cannot decide solo after %d prefix steps"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      pid (List.length schedule)
  | Crash_stuck { inputs; crashed; survivors; schedule } ->
    Fmt.pf ppf
      "resilience violated: inputs=[%a], after %d steps crashing {%a} leaves survivors {%a} stuck"
      Fmt.(array ~sep:(any ";") Value.pp) inputs
      (List.length schedule)
      Fmt.(list ~sep:comma (fmt "p%d")) crashed
      Fmt.(list ~sep:comma (fmt "p%d")) survivors
