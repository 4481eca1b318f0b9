open Ts_model

type report = {
  algorithm : string;
  n : int;
  best_covered : int;
  configs_explored : int;
  truncated : bool;
  exclusion_violated : bool;
}

(* A pure configuration: immutable snapshot of the whole lock. *)
type 's cfg = {
  states : 's option array;  (* None once back in the remainder section *)
  regs : Value.t array;
  in_cs : int option;
}

let initial alg =
  let n = alg.Algorithm.num_processes in
  {
    states = Array.init n (fun p -> Some (alg.Algorithm.start ~pid:p));
    regs = Array.make (max 1 alg.Algorithm.num_registers) Value.bot;
    in_cs = None;
  }

let covered_registers alg cfg =
  Array.to_list cfg.states
  |> List.filter_map (fun st ->
      match st with
      | None -> None
      | Some st ->
        (match alg.Algorithm.poised st with
         | Algorithm.Write (r, _) | Algorithm.Swap (r, _) -> Some r
         | Algorithm.Read _ | Algorithm.Enter_cs | Algorithm.Exit_cs | Algorithm.Done -> None))
  |> List.sort_uniq compare
  |> List.length

(* One step of process [p]; [None] if the step is an Enter_cs while the
   critical section is occupied (that successor is a mutual-exclusion
   violation, reported by the caller). *)
let step alg cfg p =
  match cfg.states.(p) with
  | None -> `Idle
  | Some st ->
    let with_state st' = { cfg with states = (let a = Array.copy cfg.states in a.(p) <- st'; a) } in
    (match alg.Algorithm.poised st with
     | Algorithm.Read r -> `Ok (with_state (Some (alg.Algorithm.on_read st cfg.regs.(r))))
     | Algorithm.Write (r, v) ->
       let regs = Array.copy cfg.regs in
       regs.(r) <- v;
       `Ok { (with_state (Some (alg.Algorithm.on_write st))) with regs }
     | Algorithm.Swap (r, v) ->
       let old = cfg.regs.(r) in
       let regs = Array.copy cfg.regs in
       regs.(r) <- v;
       `Ok { (with_state (Some (alg.Algorithm.on_swap st old))) with regs }
     | Algorithm.Enter_cs ->
       (match cfg.in_cs with
        | Some _ -> `Violation
        | None -> `Ok { (with_state (Some (alg.Algorithm.on_enter st))) with in_cs = Some p })
     | Algorithm.Exit_cs ->
       `Ok { (with_state (Some (alg.Algorithm.on_exit st))) with in_cs = None }
     | Algorithm.Done -> `Ok (with_state None))

(* Lock snapshots have no protocol-supplied encoder; key them by their
   structural serialization (still a full-width hash, unlike the truncated
   polymorphic one). *)
let key cfg = Ckey.of_marshal cfg

let search alg ~max_configs =
  let sp = Ts_obs.Obs.enter ~cat:"covering" "covering_search" in
  Ts_obs.Obs.set_str sp "algorithm" alg.Algorithm.name;
  let n = alg.Algorithm.num_processes in
  let visited = Ckey.Tbl.create 4096 in
  let q = Queue.create () in
  let cfg0 = initial alg in
  Ckey.Tbl.replace visited (key cfg0) ();
  Queue.add cfg0 q;
  let best = ref 0 in
  let explored = ref 0 in
  let truncated = ref false in
  let violated = ref false in
  while not (Queue.is_empty q) do
    let cfg = Queue.pop q in
    incr explored;
    best := max !best (covered_registers alg cfg);
    if !explored >= max_configs then begin
      truncated := true;
      Queue.clear q
    end
    else
      for p = 0 to n - 1 do
        match step alg cfg p with
        | `Idle -> ()
        | `Violation -> violated := true
        | `Ok cfg' ->
          let k = key cfg' in
          if not (Ckey.Tbl.mem visited k) then begin
            Ckey.Tbl.add visited k ();
            Queue.add cfg' q
          end
      done
  done;
  Ts_obs.Obs.set_int sp "configs" !explored;
  Ts_obs.Obs.set_int sp "best_covered" !best;
  Ts_obs.Obs.close sp;
  {
    algorithm = alg.Algorithm.name;
    n;
    best_covered = !best;
    configs_explored = !explored;
    truncated = !truncated;
    exclusion_violated = !violated;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "%s (n=%d): best covering found = %d distinct registers over %d configurations%s%s"
    r.algorithm r.n r.best_covered r.configs_explored
    (if r.truncated then " (truncated)" else " (exhaustive)")
    (if r.exclusion_violated then " — MUTUAL EXCLUSION VIOLATED" else "")
