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

(* A top-level loop over the raw member mask, with no closure allocated:
   every search calls [iter_successors] once per node.  Each member's
   status is read, and its action asked of the protocol, once; every
   successor is that action performed under one of [coins act]. *)
let rec each_member proto cfg f mask p =
  if mask <> 0 then begin
    (if mask land 1 <> 0 then
       match cfg.Config.procs.(p) with
       | Config.Decided _ -> ()
       | Config.Running s -> (
         match proto.Protocol.poised s with
         | Action.Flip as act ->
           f (flip p true) (Config.perform proto cfg p s act ~coin:(Some true));
           f (flip p false) (Config.perform proto cfg p s act ~coin:(Some false))
         | act -> f (ev p) (Config.perform proto cfg p s act ~coin:None)));
    each_member proto cfg f (mask lsr 1) (p + 1)
  end

let iter_successors proto cfg ps f = each_member proto cfg f (Pset.to_mask ps) 0

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

let pp_event ppf e =
  match e.coin with
  | None -> Fmt.pf ppf "p%d" e.pid
  | Some b -> Fmt.pf ppf "p%d(coin=%b)" e.pid b

let pp_step ppf s = Fmt.pf ppf "p%d:%a" s.actor Action.pp s.action

let pp_trace ppf tr = Fmt.pf ppf "@[<hov 1>%a@]" Fmt.(list ~sep:sp pp_step) tr
