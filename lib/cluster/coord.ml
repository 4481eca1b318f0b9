open Ts_model
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore
module Valency = Ts_core.Valency
module Response = Ts_service.Response
module Client = Ts_service.Client

(* --- peers ---------------------------------------------------------------- *)

type peer = {
  wid : int;
  name : string;
  call : Json.t -> (Json.t, string) result;
  mutable alive : bool;
}

(* An ingest chunk does real engine work (deep updates, solo probes), so
   a worker can legitimately hold a frame for tens of seconds on a big
   frontier; the default RPC timeout must bound death detection, not the
   engine.  The seq protocol makes the retries safe either way. *)
let default_policy = { Client.default_policy with Client.timeout_ms = 60_000 }

let tcp_peer ?policy ~wid ~host ~port () =
  let policy = Option.value policy ~default:default_policy in
  let c = Client.make ~host ~policy ~port () in
  {
    wid;
    name = Printf.sprintf "%s:%d" host port;
    call = (fun doc -> Client.call c doc);
    alive = true;
  }

let local_peer ~wid w =
  {
    wid;
    name = Printf.sprintf "local-%d" wid;
    call =
      (fun doc ->
        match Json.of_string (Worker.handle w (Json.to_string doc)) with
        | Ok d -> Ok d
        | Error m -> Error ("parse: " ^ m));
    alive = true;
  }

(* --- parameters ----------------------------------------------------------- *)

type op =
  | Check
  | Resilient
  | Valency

let op_str = function
  | Check -> "check"
  | Resilient -> "resilient"
  | Valency -> "valency"

type params = {
  op : op;
  protocol : string;
  n : int;
  k : int;
  t_faults : int;
  max_configs : int;
  max_depth : int;
  solo_budget : int;
  check_solo : bool;
  horizon : int option;
  shards : int;
  deadline : float option;
  steal_threshold : int;
  chunk : int;
}

let default_params =
  {
    op = Check;
    protocol = "racing";
    n = 3;
    k = 1;
    t_faults = 1;
    max_configs = 60_000;
    max_depth = 40;
    solo_budget = 300;
    check_solo = true;
    horizon = None;
    shards = 8;
    deadline = None;
    steal_threshold = 64;
    chunk = 256;
  }

(* --- outcomes ------------------------------------------------------------- *)

type failure = {
  reason : [ `Dead_workers | `Deadline ];
  dead : (int * string) list;
  lost_shards : int list;
  reassignment : (int * int) list;
  completed_rounds : int;
  vector : int option;
}

type outcome =
  | Complete of {
      result : Json.t;
      telemetry : Json.t;
    }
  | Failed of failure

exception Dead_peers
exception Deadline_hit

(* --- coordinator state ---------------------------------------------------- *)

type state = {
  peers : peer array;
  params : params;
  assign : int array;  (* shard -> position in [peers]; mutated by steals *)
  seqs : int array;  (* per peer, reset at each search's init *)
  mutable round : int;
  mutable vector : int option;
  mutable dead : (int * string) list;
  mutable steals : int;
  deadline_at : float option;
  tele : (string, int) Hashtbl.t array;
}

let check_deadline st =
  match st.deadline_at with
  | Some t when Unix.gettimeofday () > t -> raise Deadline_hit
  | _ -> ()

let next_seq st w =
  st.seqs.(w) <- st.seqs.(w) + 1;
  st.seqs.(w)

(* A worker reply that violates the wire protocol is indistinguishable
   from a corrupted worker: retire it rather than risk a wrong answer. *)
let wire_fail st pos msg =
  st.peers.(pos).alive <- false;
  st.dead <- st.dead @ [ (st.peers.(pos).wid, "protocol: " ^ msg) ];
  raise Dead_peers

(* --- phases --------------------------------------------------------------- *)

let send_seq st pos docs =
  let peer = st.peers.(pos) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
      match peer.call d with
      | Error msg -> Error msg
      | Ok env -> (
        match Msg.result_of_envelope env with
        | Error msg -> Error msg
        | Ok r -> go (r :: acc) rest))
  in
  go [] docs

(* One job per worker, fanned out on domains; a phase is a barrier.  Each
   worker's documents are sent strictly sequentially (the seq protocol
   depends on it); workers run their jobs concurrently with each other. *)
let phase st jobs =
  check_deadline st;
  let jobs = List.filter (fun (_, docs) -> docs <> []) jobs in
  let results =
    match jobs with
    | [] -> []
    | [ (pos, docs) ] -> [ (pos, send_seq st pos docs) ]
    | _ ->
      let doms =
        List.map
          (fun (pos, docs) ->
            ( pos,
              Domain.spawn (fun () ->
                  try send_seq st pos docs
                  with exn -> Error ("exn: " ^ Printexc.to_string exn)) ))
          jobs
      in
      List.map (fun (pos, d) -> (pos, Domain.join d)) doms
  in
  let deads =
    List.filter_map
      (fun (pos, r) -> match r with Error m -> Some (pos, m) | Ok _ -> None)
      results
  in
  if deads <> [] then begin
    List.iter
      (fun (pos, msg) ->
        st.peers.(pos).alive <- false;
        st.dead <- st.dead @ [ (st.peers.(pos).wid, msg) ])
      deads;
    raise Dead_peers
  end;
  List.map
    (fun (pos, r) -> (pos, match r with Ok rs -> rs | Error _ -> assert false))
    results

let chunk_list n l =
  let rec go start acc cur k = function
    | [] -> List.rev (if cur = [] then acc else (start, List.rev cur) :: acc)
    | x :: rest ->
      if k = n then go (start + n) ((start, List.rev cur) :: acc) [ x ] 1 rest
      else go start acc (x :: cur) (k + 1) rest
  in
  if l = [] then [] else go 0 [] [] 0 l

(* --- the round messages --------------------------------------------------- *)

(* a routed candidate: owner shard, schedule string, generating parent's
   global dequeue index *)
type rc = {
  rshard : int;
  rsched : string;
  parent : int;
}

(* a deduplicated frontier member, in serial dequeue order *)
type item = {
  gidx : int;  (* 1-based global serial dequeue index *)
  sched : string;
  wpos : int;  (* peer holding it *)
  widx : int;  (* its worker-local pending index *)
  probes : int;
  vio : Json.t option;
  decided : bool;
}

type ingested = {
  items : item array;
  dup_hits : int;
  parent_miss : (int, int) Hashtbl.t;
}

let ingest st ~search ~examine ~gbase cands =
  let nw = Array.length st.peers in
  let per_w = Array.make nw [] in
  let counts = Array.make nw 0 in
  let wslot = Array.make (Array.length cands) (0, 0) in
  Array.iteri
    (fun gpos c ->
      let w = st.assign.(c.rshard) in
      let i = counts.(w) in
      counts.(w) <- i + 1;
      per_w.(w) <- c :: per_w.(w);
      wslot.(gpos) <- (w, i))
    cands;
  let jobs =
    List.init nw (fun w ->
        let docs =
          List.map
            (fun (off, chunk) ->
              Json.Obj
                [
                  ("op", Json.Str "cluster-ingest");
                  ("search", Json.Str search);
                  ("seq", Json.Int (next_seq st w));
                  ("reset", Json.Bool (off = 0));
                  ("base", Json.Int off);
                  ("examine", Json.Bool examine);
                  ( "cands",
                    Msg.cands_to_json
                      (List.map
                         (fun c -> { Msg.shard = c.rshard; sched = c.rsched })
                         chunk) );
                ])
            (chunk_list st.params.chunk (List.rev per_w.(w)))
        in
        (w, docs))
  in
  let replies = phase st jobs in
  let flags = Array.make nw "" in
  let exams = Array.init nw (fun _ -> Hashtbl.create 8) in
  List.iter
    (fun (w, rs) ->
      List.iter
        (fun r ->
          (match Option.bind (Json.member "flags" r) Json.to_str_opt with
          | Some f -> flags.(w) <- flags.(w) ^ f
          | None -> wire_fail st w "ingest reply missing flags");
          match Json.member "exams" r with
          | Some (Json.List es) ->
            List.iter
              (fun e ->
                match Option.bind (Json.member "i" e) Json.to_int_opt with
                | None -> wire_fail st w "exam entry missing i"
                | Some i ->
                  let probes =
                    Option.value ~default:0
                      (Option.bind (Json.member "p" e) Json.to_int_opt)
                  in
                  let vio = Json.member "v" e in
                  let decided =
                    match Json.member "d" e with
                    | Some (Json.Bool b) -> b
                    | _ -> false
                  in
                  Hashtbl.replace exams.(w) i (probes, vio, decided))
              es
          | _ -> wire_fail st w "ingest reply missing exams")
        rs)
    replies;
  Array.iteri
    (fun w f ->
      if String.length f <> counts.(w) then wire_fail st w "flag count mismatch")
    flags;
  let items = ref [] in
  let nitems = ref 0 in
  let dups = ref 0 in
  let pmiss = Hashtbl.create 64 in
  Array.iteri
    (fun gpos c ->
      let w, i = wslot.(gpos) in
      match flags.(w).[i] with
      | '0' -> incr dups
      | '1' ->
        incr nitems;
        let probes, vio, decided =
          match Hashtbl.find_opt exams.(w) i with
          | Some e -> e
          | None -> (0, None, false)
        in
        items :=
          { gidx = gbase + !nitems; sched = c.rsched; wpos = w; widx = i;
            probes; vio; decided }
          :: !items;
        Hashtbl.replace pmiss c.parent
          (1 + Option.value ~default:0 (Hashtbl.find_opt pmiss c.parent))
      | _ -> wire_fail st w "bad flag byte")
    cands;
  { items = Array.of_list (List.rev !items); dup_hits = !dups; parent_miss = pmiss }

let expand st ~search items =
  let nw = Array.length st.peers in
  let per_w = Array.make nw [] in
  Array.iter (fun it -> per_w.(it.wpos) <- it.widx :: per_w.(it.wpos)) items;
  let jobs =
    List.init nw (fun w ->
        let docs =
          List.map
            (fun (_, chunk) ->
              Json.Obj
                [
                  ("op", Json.Str "cluster-expand");
                  ("search", Json.Str search);
                  ("seq", Json.Int (next_seq st w));
                  ("items", Json.List (List.map (fun i -> Json.Int i) chunk));
                ])
            (chunk_list st.params.chunk (List.rev per_w.(w)))
        in
        (w, docs))
  in
  let replies = phase st jobs in
  let tbl = Hashtbl.create (max 16 (Array.length items * 2)) in
  List.iter
    (fun (w, rs) ->
      List.iter
        (fun r ->
          match Json.member "out" r with
          | Some (Json.List outs) ->
            List.iter
              (fun o ->
                match
                  ( Option.bind (Json.member "i" o) Json.to_int_opt,
                    Option.map Msg.cands_of_json (Json.member "c" o) )
                with
                | Some i, Some (Ok cs) -> Hashtbl.replace tbl (w, i) cs
                | _, Some (Error m) -> wire_fail st w m
                | _ -> wire_fail st w "malformed expand entry")
              outs
          | _ -> wire_fail st w "expand reply missing out")
        rs)
    replies;
  let out = ref [] in
  Array.iter
    (fun it ->
      match Hashtbl.find_opt tbl (it.wpos, it.widx) with
      | None -> wire_fail st it.wpos "expand reply missing item"
      | Some cs ->
        List.iter
          (fun { Msg.shard; sched } ->
            out := { rshard = shard; rsched = sched; parent = it.gidx } :: !out)
          cs)
    items;
  Array.of_list (List.rev !out)

(* --- work stealing --------------------------------------------------------

   Decided at the round barrier, after expansion: if some worker has no
   next-round candidates while another holds at least [steal_threshold]
   of them spread over >= 2 shards, migrate the busy worker's smallest
   nonempty shard (visited set and all) to the idle one.  The answer
   only ever depends on the key->shard partition, never on which worker
   holds a shard, so stealing is invisible to the result. *)

let maybe_steal st ~search next_cands =
  let nw = Array.length st.peers in
  if nw >= 2 then begin
    let sc = Array.make st.params.shards 0 in
    Array.iter (fun c -> sc.(c.rshard) <- sc.(c.rshard) + 1) next_cands;
    let wtotal = Array.make nw 0 in
    let wshards = Array.make nw 0 in
    Array.iteri
      (fun s cnt ->
        if cnt > 0 then begin
          let w = st.assign.(s) in
          wtotal.(w) <- wtotal.(w) + cnt;
          wshards.(w) <- wshards.(w) + 1
        end)
      sc;
    let idle = ref (-1) in
    let busy = ref (-1) in
    for w = nw - 1 downto 0 do
      if wtotal.(w) = 0 then idle := w
    done;
    for w = 0 to nw - 1 do
      if
        wtotal.(w) >= st.params.steal_threshold
        && wshards.(w) >= 2
        && (!busy < 0 || wtotal.(w) > wtotal.(!busy))
      then busy := w
    done;
    if !idle >= 0 && !busy >= 0 && !idle <> !busy then begin
      let victim = ref (-1) in
      for s = st.params.shards - 1 downto 0 do
        if st.assign.(s) = !busy && sc.(s) > 0 && (!victim < 0 || sc.(s) <= sc.(!victim))
        then victim := s
      done;
      if !victim >= 0 then begin
        let exp_doc =
          Json.Obj
            [
              ("op", Json.Str "cluster-steal-export");
              ("search", Json.Str search);
              ("seq", Json.Int (next_seq st !busy));
              ("shard", Json.Int !victim);
            ]
        in
        let keys =
          match phase st [ (!busy, [ exp_doc ]) ] with
          | [ (_, [ r ]) ] -> (
            match Json.member "keys" r with
            | Some (Json.List ks) -> ks
            | _ -> wire_fail st !busy "steal-export reply missing keys")
          | _ -> wire_fail st !busy "steal-export reply shape"
        in
        let imp_doc =
          Json.Obj
            [
              ("op", Json.Str "cluster-steal-import");
              ("search", Json.Str search);
              ("seq", Json.Int (next_seq st !idle));
              ("shard", Json.Int !victim);
              ("keys", Json.List keys);
            ]
        in
        ignore (phase st [ (!idle, [ imp_doc ]) ]);
        st.assign.(!victim) <- !idle;
        st.steals <- st.steals + 1
      end
    end
  end

(* --- one distributed BFS --------------------------------------------------

   Level-synchronous rounds over the workers, with the serial engine's
   counters reconstructed exactly on the coordinator:

   - the round-r candidate stream, walked in serial generation order,
     yields the serial dedup flag stream (same-key candidates route to
     the same shard in the same relative order), so table hits/misses
     and the new-item set are serial-identical;
   - new items inherit consecutive global dequeue indices [gidx] in
     (level, lex-schedule) order — the serial queue's dequeue order;
   - the serial queue length after expanding the item with index [g] is
     [cum_ins - g] where [cum_ins] counts insertions so far, so the
     queue's high-water mark is the max of that expression over expanded
     items (non-expanded dequeues only ever shrink the queue and cannot
     set a new peak);
   - a violating item W stops the serial search mid-round: items after W
     are never dequeued (their probes don't count), items before W were
     dequeued and expanded (their children's flags and the trunc check
     do count) — the drain pass reproduces exactly that. *)

type bfs_res = {
  found : (string * Json.t option) option;
      (* stopping item's schedule + violation payload (None = valency
         target decided) *)
  explored : int;
  insertions : int;
  hits : int;
  probes : int;
  deepest : int;
  truncated : bool;
  peak : int;
}

let bfs st ~search ~inputs ~mode_fields ~depth_limit ~cfg_limit =
  let nw = Array.length st.peers in
  Array.fill st.seqs 0 nw 0;
  st.round <- 0;
  let init_doc =
    Json.Obj
      ([
         ("op", Json.Str "cluster-init");
         ("search", Json.Str search);
         ("protocol", Json.Str st.params.protocol);
         ("n", Json.Int st.params.n);
         ("shards", Json.Int st.params.shards);
         ("inputs", Json.List (Array.to_list (Array.map Msg.value_to_json inputs)));
       ]
      @ mode_fields)
  in
  let replies = phase st (List.init nw (fun w -> (w, [ init_doc ]))) in
  let root_shard =
    match replies with
    | (w, r :: _) :: _ -> (
      match Option.bind (Json.member "root_shard" r) Json.to_int_opt with
      | Some s -> s
      | None -> wire_fail st w "init reply missing root_shard")
    | _ -> invalid_arg "cluster: no workers"
  in
  (* serial-counter accumulator; the root is pre-seeded exactly as the
     serial search seeds it (one insertion, peak 1) *)
  let ins = ref 1 in
  let hits = ref 0 in
  let probes = ref 0 in
  let deepest = ref 0 in
  let trunc = ref false in
  let cum = ref 1 in
  let peak = ref 1 in
  let gbase = ref 0 in
  let account parents pmiss =
    Array.iter
      (fun (it : item) ->
        cum := !cum + Option.value ~default:0 (Hashtbl.find_opt pmiss it.gidx);
        if !cum - it.gidx > !peak then peak := !cum - it.gidx)
      parents
  in
  let is_allowed round it = round < depth_limit && it.gidx < cfg_limit in
  let clean () =
    { found = None; explored = !ins; insertions = !ins; hits = !hits;
      probes = !probes; deepest = !deepest; truncated = !trunc; peak = !peak }
  in
  let rec go round cands parents =
    let ing = ingest st ~search ~examine:true ~gbase:!gbase cands in
    (* round 0 ingests the root, whose insertion is pre-seeded *)
    if round > 0 then begin
      hits := !hits + ing.dup_hits;
      ins := !ins + Array.length ing.items;
      account parents ing.parent_miss
    end;
    let items = ing.items in
    let stop = ref (-1) in
    Array.iteri
      (fun j it -> if !stop < 0 && (it.vio <> None || it.decided) then stop := j)
      items;
    st.round <- round;
    if !stop >= 0 then begin
      let j0 = !stop in
      let w = items.(j0) in
      for k = 0 to j0 do
        probes := !probes + items.(k).probes
      done;
      if round > !deepest then deepest := round;
      if j0 > 0 && (round >= depth_limit || w.gidx - 1 >= cfg_limit) then
        trunc := true;
      (* drain: the pre-W items of this round were expanded serially
         before W was dequeued — replay their children's dedup flags *)
      let pre_allowed =
        Array.of_list
          (List.filter (is_allowed round) (Array.to_list (Array.sub items 0 j0)))
      in
      if Array.length pre_allowed > 0 then begin
        let dr_cands = expand st ~search pre_allowed in
        let dr =
          ingest st ~search ~examine:false
            ~gbase:(!gbase + Array.length items)
            dr_cands
        in
        hits := !hits + dr.dup_hits;
        ins := !ins + Array.length dr.items;
        account pre_allowed dr.parent_miss
      end;
      { found = Some (w.sched, w.vio); explored = w.gidx; insertions = !ins;
        hits = !hits; probes = !probes; deepest = !deepest; truncated = !trunc;
        peak = !peak }
    end
    else begin
      Array.iter (fun (it : item) -> probes := !probes + it.probes) items;
      if Array.length items > 0 && round > !deepest then deepest := round;
      gbase := !gbase + Array.length items;
      let allowed =
        Array.of_list (List.filter (is_allowed round) (Array.to_list items))
      in
      if Array.length allowed < Array.length items then trunc := true;
      if Array.length allowed = 0 then clean ()
      else begin
        let next = expand st ~search allowed in
        if Array.length next = 0 then clean ()
        else begin
          maybe_steal st ~search next;
          go (round + 1) next allowed
        end
      end
    end
  in
  let res = go 0 [| { rshard = root_shard; rsched = ""; parent = 0 } |] [||] in
  (* free the search on every worker, folding its telemetry *)
  let fdoc =
    Json.Obj [ ("op", Json.Str "cluster-finish"); ("search", Json.Str search) ]
  in
  let freplies = phase st (List.init nw (fun w -> (w, [ fdoc ]))) in
  List.iter
    (fun (w, rs) ->
      List.iter
        (fun r ->
          match Json.member "stats" r with
          | Some (Json.Obj kvs) ->
            List.iter
              (fun (k, v) ->
                match Json.to_int_opt v with
                | Some i ->
                  Hashtbl.replace st.tele.(w) k
                    (i + Option.value ~default:0 (Hashtbl.find_opt st.tele.(w) k))
                | None -> ())
              kvs
          | _ -> ())
        rs)
    freplies;
  res

(* --- per-op drivers ------------------------------------------------------- *)

(* identical to the serial checker's private stats fold, re-stated here
   because the cluster reassembles per-vector stats itself *)
let empty_stats =
  {
    Explore.configs_explored = 0;
    truncated = false;
    deepest = 0;
    table_hits = 0;
    table_misses = 0;
    peak_frontier = 0;
    solo_cache_hits = 0;
    solo_cache_misses = 0;
  }

let merge_stats (a : Explore.stats) (b : Explore.stats) =
  {
    Explore.configs_explored = a.configs_explored + b.configs_explored;
    truncated = a.truncated || b.truncated;
    deepest = max a.deepest b.deepest;
    table_hits = a.table_hits + b.table_hits;
    table_misses = a.table_misses + b.table_misses;
    peak_frontier = max a.peak_frontier b.peak_frontier;
    solo_cache_hits = a.solo_cache_hits + b.solo_cache_hits;
    solo_cache_misses = a.solo_cache_misses + b.solo_cache_misses;
  }

let explore_driver st =
  let p = st.params in
  let mode_fields =
    match p.op with
    | Check ->
      [
        ("mode", Json.Str "check");
        ("k", Json.Int p.k);
        ("solo_budget", Json.Int p.solo_budget);
        ("check_solo", Json.Bool p.check_solo);
      ]
    | Resilient ->
      [
        ("mode", Json.Str "resilient");
        ("t", Json.Int p.t_faults);
        ("solo_budget", Json.Int p.solo_budget);
      ]
    | Valency -> assert false
  in
  (* vectors run sequentially, stopping at the first violating one, and
     their stats fold exactly as the serial checker folds them *)
  let rec go i acc = function
    | [] -> { Explore.verdict = Ok (); stats = acc; stopped = None; worker_errors = [] }
    | inputs :: rest -> (
      st.vector <- Some i;
      let search = Printf.sprintf "%s-v%d" (op_str p.op) i in
      let res =
        bfs st ~search ~inputs ~mode_fields ~depth_limit:p.max_depth
          ~cfg_limit:p.max_configs
      in
      let stats =
        {
          Explore.configs_explored = res.explored;
          truncated = res.truncated;
          deepest = res.deepest;
          table_hits = res.hits;
          table_misses = res.insertions;
          peak_frontier = res.peak;
          solo_cache_hits = 0;
          solo_cache_misses = res.probes;
        }
      in
      let acc = merge_stats acc stats in
      match res.found with
      | None -> go (i + 1) acc rest
      | Some (sched_s, payload) ->
        let schedule =
          match Msg.sched_of_string sched_s with
          | Ok s -> s
          | Error m -> invalid_arg ("cluster: " ^ m)
        in
        let vio =
          match payload with
          | None -> invalid_arg "cluster: examiner stopped without a violation"
          | Some pl -> (
            match Msg.violation_of_payload pl ~inputs ~schedule with
            | Ok v -> v
            | Error m -> invalid_arg ("cluster: " ^ m))
        in
        { Explore.verdict = Error vio; stats = acc; stopped = None;
          worker_errors = [] })
  in
  let result = go 0 empty_stats (Explore.binary_inputs p.n) in
  let replay =
    match (p.op, result.Explore.verdict) with
    | Resilient, Error v ->
      let (Protocol.Packed proto) =
        match Ts_protocols.Catalog.find p.protocol ~n:p.n with
        | Ok pk -> pk
        | Error m -> invalid_arg m
      in
      Some (Explore.replay ~solo_budget:p.solo_budget proto v)
    | _ -> None
  in
  Response.explore_to_json ?replay result

let valency_driver st =
  let p = st.params in
  let horizon = match p.horizon with Some h -> h | None -> 10 * p.n in
  let inputs = Array.init p.n (fun q -> Value.int (if q = 1 then 1 else 0)) in
  let mask = (1 lsl p.n) - 1 in
  let probe target =
    st.vector <- Some target;
    let mode_fields =
      [
        ("mode", Json.Str "valency");
        ("target", Json.Int target);
        ("ps_mask", Json.Int mask);
      ]
    in
    bfs st
      ~search:(Printf.sprintf "valency-v%d" target)
      ~inputs ~mode_fields ~depth_limit:horizon ~cfg_limit:max_int
  in
  let r0 = probe 0 in
  let r1 = probe 1 in
  let wit r =
    Option.map
      (fun (s, _) ->
        match Msg.sched_of_string s with
        | Ok e -> e
        | Error m -> invalid_arg ("cluster: " ^ m))
      r.found
  in
  let verdict =
    match (wit r0, wit r1) with
    | Some w0, Some w1 -> Valency.Bivalent (w0, w1)
    | Some w0, None -> Valency.Univalent (Valency.zero, w0)
    | None, Some w1 -> Valency.Univalent (Valency.one, w1)
    | None, None -> Valency.Blocked
  in
  let stats =
    {
      Valency.searches = 1;
      nodes_expanded = max r0.explored r1.explored;
      memo_hits = 0;
      memo_misses = 2;
      peak_frontier = max r0.peak r1.peak;
    }
  in
  Response.valency_to_json ~inputs ~horizon verdict stats

(* --- failure assembly, telemetry, entry points ---------------------------- *)

let mk_failure st reason =
  let lost = ref [] in
  Array.iteri
    (fun s w -> if not st.peers.(w).alive then lost := s :: !lost)
    st.assign;
  let survivors = List.filter (fun pr -> pr.alive) (Array.to_list st.peers) in
  let reassignment =
    match survivors with
    | [] -> []
    | _ ->
      let arr = Array.of_list survivors in
      List.init st.params.shards (fun s -> (s, arr.(s mod Array.length arr).wid))
  in
  {
    reason;
    dead = st.dead;
    lost_shards = List.rev !lost;
    reassignment;
    completed_rounds = st.round;
    vector = st.vector;
  }

let failure_to_json f =
  Json.Obj
    [
      ("status", Json.Str "partial");
      ( "reason",
        Json.Str
          (match f.reason with
          | `Dead_workers -> "dead-workers"
          | `Deadline -> "deadline") );
      ( "dead",
        Json.List
          (List.map
             (fun (wid, msg) ->
               Json.Obj [ ("wid", Json.Int wid); ("error", Json.Str msg) ])
             f.dead) );
      ("lost_shards", Json.List (List.map (fun s -> Json.Int s) f.lost_shards));
      ( "reassignment",
        Json.List
          (List.map
             (fun (s, w) -> Json.List [ Json.Int s; Json.Int w ])
             f.reassignment) );
      ("completed_rounds", Json.Int f.completed_rounds);
      ( "vector",
        match f.vector with None -> Json.Null | Some v -> Json.Int v );
    ]

let telemetry_json st =
  let workers =
    Array.to_list
      (Array.mapi
         (fun w p ->
           let kvs = Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) st.tele.(w) [] in
           let kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs in
           Json.Obj (("wid", Json.Int p.wid) :: ("name", Json.Str p.name) :: kvs))
         st.peers)
  in
  Json.Obj
    [
      ("shards", Json.Int st.params.shards);
      ("steals", Json.Int st.steals);
      ("workers", Json.List workers);
    ]

let run_once params peers_arr =
  (match Ts_protocols.Catalog.find params.protocol ~n:params.n with
  | Ok _ -> ()
  | Error m -> invalid_arg m);
  if params.shards < 1 then invalid_arg "cluster: shards must be >= 1";
  if params.chunk < 1 then invalid_arg "cluster: chunk must be >= 1";
  (match params.op with
  | Resilient when params.t_faults < 0 || params.t_faults > params.n - 1 ->
    invalid_arg "cluster: t_faults out of range"
  | Check when params.k < 1 -> invalid_arg "cluster: k must be >= 1"
  | _ -> ());
  let nw = Array.length peers_arr in
  let st =
    {
      peers = peers_arr;
      params;
      assign = Shard.round_robin ~shards:params.shards ~workers:nw;
      seqs = Array.make nw 0;
      round = 0;
      vector = None;
      dead = [];
      steals = 0;
      deadline_at =
        Option.map (fun d -> Unix.gettimeofday () +. d) params.deadline;
      tele = Array.init nw (fun _ -> Hashtbl.create 8);
    }
  in
  try
    let result =
      match params.op with
      | Valency -> valency_driver st
      | Check | Resilient -> explore_driver st
    in
    Complete { result; telemetry = telemetry_json st }
  with
  | Dead_peers -> Failed (mk_failure st `Dead_workers)
  | Deadline_hit -> Failed (mk_failure st `Deadline)

let run ?(restarts = 0) params ~peers =
  if peers = [] then invalid_arg "cluster: at least one worker required";
  let rec attempt budget ps =
    match run_once params (Array.of_list ps) with
    | Complete _ as c -> c
    | Failed f ->
      let survivors = List.filter (fun p -> p.alive) ps in
      if budget > 0 && f.reason = `Dead_workers && survivors <> [] then
        attempt (budget - 1) survivors
      else Failed f
  in
  attempt restarts peers

(* The coordinator's store tier keys with the op string salted by a
   "cluster-" prefix: the same varint packing discipline as the serial
   daemon's cache key, but a disjoint namespace, so a shared store file
   can never feed cluster bytes into the serial byte-differential. *)
let store_key p =
  let buf = Buffer.create 64 in
  let str s =
    Value.add_varint buf (String.length s);
    Buffer.add_string buf s
  in
  let int i = Value.add_varint buf i in
  str ("cluster-" ^ op_str p.op);
  str p.protocol;
  int p.n;
  int p.k;
  int p.t_faults;
  int p.max_configs;
  int p.max_depth;
  int p.solo_budget;
  int (if p.check_solo then 1 else 0);
  (match p.horizon with None -> int (-1) | Some h -> int h);
  Ckey.of_string (Buffer.contents buf)
