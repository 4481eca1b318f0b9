module Obs = Ts_obs.Obs

type pid = int

type event = {
  pid : pid;
  coin : bool option;
}

let ev p = { pid = p; coin = None }
let flip p b = { pid = p; coin = Some b }

type step_record = {
  actor : pid;
  action : Action.t;
  coin_used : bool option;
}

type trace = step_record list

let apply proto cfg sched =
  let cfg, rev =
    List.fold_left
      (fun (cfg, acc) e ->
        let cfg', action = Config.step proto cfg e.pid ~coin:e.coin in
        cfg', { actor = e.pid; action; coin_used = e.coin } :: acc)
      (cfg, []) sched
  in
  cfg, List.rev rev

let schedule_of_trace tr =
  List.map (fun s -> { pid = s.actor; coin = s.coin_used }) tr

let apply_trace proto cfg tr = apply proto cfg (schedule_of_trace tr)

let written_registers tr =
  List.filter_map (fun s -> Action.written_register s.action) tr
  |> List.sort_uniq Stdlib.compare

let accessed_registers tr =
  List.filter_map (fun s -> Action.accessed_register s.action) tr
  |> List.sort_uniq Stdlib.compare

let participants tr =
  List.fold_left (fun s r -> Pset.add r.actor s) Pset.empty tr

let coins = function Action.Flip -> [ Some true; Some false ] | _ -> [ None ]

(* An arrival step packs its pid into the low [pid_bits] bits (Pset's
   pids are below 63) and the action's [Action.footprint] above them.
   The root's, 0, has pid 0: no member is below it, so nothing is
   skipped after it. *)
let pid_bits = 6
let pid_mask = (1 lsl pid_bits) - 1
let root_arrival = 0

(* A top-level loop over the raw member mask, with no closure allocated:
   every search expands each node through it.  Each member's status is
   read, and its action asked of the protocol, once; every successor is
   that action performed under one of [coins act] and handed to [f] with
   its arrival step.  A member below the arrival's pid [below] whose step
   is independent of the arrival's footprint [fa] is counted in
   [skipped], not performed. *)
let rec each_member proto cfg f mask p below fa skipped =
  if mask = 0 then skipped
  else if mask land 1 = 0 then each_member proto cfg f (mask lsr 1) (p + 1) below fa skipped
  else
    match cfg.Config.procs.(p) with
    | Config.Decided _ -> each_member proto cfg f (mask lsr 1) (p + 1) below fa skipped
    | Config.Running s ->
      let act = proto.Protocol.poised s in
      let fp = Action.footprint act in
      if p < below && Action.independent fp fa then
        each_member proto cfg f (mask lsr 1) (p + 1) below fa
          (skipped + match act with Action.Flip -> 2 | _ -> 1)
      else begin
        let step = (fp lsl pid_bits) lor p in
        (match act with
         | Action.Flip ->
           f (flip p true) step (Config.perform proto cfg p s act ~coin:(Some true));
           f (flip p false) step (Config.perform proto cfg p s act ~coin:(Some false))
         | act -> f (ev p) step (Config.perform proto cfg p s act ~coin:None));
        each_member proto cfg f (mask lsr 1) (p + 1) below fa skipped
      end

let iter_successors proto cfg ps f =
  ignore (each_member proto cfg (fun e _ cfg' -> f e cfg') (Pset.to_mask ps) 0 0 0 0)

type counts = {
  nodes : int;
  deepest : int;
  peak_frontier : int;
  hits : int;
  misses : int;
  skipped : int;
  truncated : bool;
}

exception Stop

let bfs pk proto root ps ~max_depth ~max_nodes ~table_size ~loc ~charge ~visit =
  let visited = Ckey.Tbl.create table_size in
  (* each search owns its visited table; a distinct location per table
     lets the race detector prove no cross-domain sharing ever happens *)
  let loc = Obs.fresh_loc loc in
  (* the queue holds (configuration, reversed schedule, arrival step) *)
  let q = Queue.create () in
  (* [rev] is the reversed schedule of the node being expanded, so that
     [offer] is built once per search, not once per node *)
  let rev = ref [] and hits = ref 0 and misses = ref 1 in
  let offer e step cfg' =
    let key = Ckey.pack pk cfg' in
    Obs.access ~loc Obs.Read ~atomic:false;
    (* [add] after a failed [mem]: one bucket scan, and the cell goes to
       the bucket head as [replace] would put it *)
    if Ckey.Tbl.mem visited key then incr hits
    else begin
      incr misses;
      Obs.access ~loc Obs.Write ~atomic:false;
      Ckey.Tbl.add visited key ();
      Queue.add (cfg', e :: !rev, step) q
    end
  in
  let mask = Pset.to_mask ps in
  Queue.add (root, [], root_arrival) q;
  Obs.access ~loc Obs.Write ~atomic:false;
  Ckey.Tbl.add visited (Ckey.pack pk root) ();
  let nodes = ref 0 and deepest = ref 0 and peak = ref 1 and skipped = ref 0 in
  let truncated = ref false in
  let level = ref (-1) and level_left = ref 0 in
  let stop =
    try
      while not (Queue.is_empty q) do
        (* FIFO order dequeues each level whole before the next: when a
           level is used up, the queue holds exactly the next one, so a
           queued node needs no depth of its own *)
        if !level_left = 0 then begin
          incr level;
          level_left := Queue.length q
        end;
        decr level_left;
        let depth = !level in
        let cfg, rev_sched, after = Queue.pop q in
        incr nodes;
        charge ();
        if depth > !deepest then deepest := depth;
        if not (visit cfg rev_sched) then raise Stop;
        if depth >= max_depth || !nodes >= max_nodes then truncated := true
        else begin
          rev := rev_sched;
          skipped :=
            each_member proto cfg offer mask 0 (after land pid_mask) (after asr pid_bits)
              !skipped;
          let frontier = Queue.length q in
          if frontier > !peak then peak := frontier
        end
      done;
      None
    with
    | Stop -> None
    | e -> Some e
  in
  ( {
      nodes = !nodes;
      deepest = !deepest;
      peak_frontier = !peak;
      hits = !hits + !skipped;
      misses = !misses;
      skipped = !skipped;
      truncated = !truncated;
    },
    stop )

let solo proto cfg p ~flips ~budget =
  let rec go cfg acc nflip fuel =
    match Config.has_decided cfg p with
    | Some v -> cfg, List.rev acc, Some v
    | None ->
      if fuel = 0 then cfg, List.rev acc, None
      else
        let coin, nflip =
          match Config.poised proto cfg p with
          | Some Action.Flip -> Some (flips nflip), nflip + 1
          | _ -> None, nflip
        in
        let cfg', action = Config.step proto cfg p ~coin in
        go cfg' ({ actor = p; action; coin_used = coin } :: acc) nflip (fuel - 1)
  in
  go cfg [] 0 budget

let pp_step ppf s = Fmt.pf ppf "p%d:%a" s.actor Action.pp s.action

let pp_trace ppf tr = Fmt.pf ppf "@[<hov 1>%a@]" Fmt.(list ~sep:sp pp_step) tr
