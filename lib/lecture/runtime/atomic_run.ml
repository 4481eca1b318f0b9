open Ts_model

type stats = {
  protocol : string;
  trials : int;
  agreement_failures : int;
  validity_failures : int;
  timeouts : int;
  total_steps : int;
  max_process_steps : int;
  wall_seconds : float;
}

(* One process's life: drive the state machine against the atomics until
   it decides or exhausts its budget. *)
let process_body (proto : 's Protocol.t) regs pid input rng budget =
  let rec go st steps =
    if steps >= budget then None, steps
    else
      match proto.Protocol.poised st with
      | Action.Read r -> go (proto.Protocol.on_read st (Atomic.get regs.(r))) (steps + 1)
      | Action.Write (r, v) ->
        Atomic.set regs.(r) v;
        go (proto.Protocol.on_write st) (steps + 1)
      | Action.Swap (r, v) ->
        let old = Atomic.exchange regs.(r) v in
        go (proto.Protocol.on_swap st old) (steps + 1)
      | Action.Flip -> go (proto.Protocol.on_flip st (Rng.bool rng)) (steps + 1)
      | Action.Decide v -> Some v, steps
  in
  go (proto.Protocol.init ~pid ~input) 0

(* One domain per process: [Par.map_list] runs process 0 on the calling
   domain and each other on a domain of its own. *)
let run_trial proto ~inputs ~seed ~step_budget =
  let n = proto.Protocol.num_processes in
  let regs = Array.init (max 1 proto.Protocol.num_registers) (fun _ -> Atomic.make Value.bot) in
  Par.map_list ~domains:n
    (fun pid ->
      let rng = Rng.create (seed + (pid * 7919)) in
      process_body proto regs pid inputs.(pid) rng step_budget)
    (List.init n Fun.id)

let run proto ~trials ~seed ~step_budget ~mixed_inputs =
  let n = proto.Protocol.num_processes in
  let rng = Rng.create seed in
  let agreement_failures = ref 0 in
  let validity_failures = ref 0 in
  let timeouts = ref 0 in
  let total_steps = ref 0 in
  let max_process_steps = ref 0 in
  let t0 = Unix.gettimeofday () in
  for trial = 1 to trials do
    let inputs =
      Array.init n (fun pid ->
          if mixed_inputs then Value.int (Rng.int rng 2) else Value.int (pid mod 2))
    in
    let results = run_trial proto ~inputs ~seed:(seed + (trial * 65537)) ~step_budget in
    let decisions = ref [] in
    List.iter
      (fun (decision, steps) ->
        total_steps := !total_steps + steps;
        if steps > !max_process_steps then max_process_steps := steps;
        match decision with
        | None -> incr timeouts
        | Some v ->
          if not (List.exists (Value.equal v) !decisions) then decisions := v :: !decisions;
          if not (Array.exists (Value.equal v) inputs) then incr validity_failures)
      results;
    if List.length !decisions > 1 then incr agreement_failures
  done;
  {
    protocol = proto.Protocol.name;
    trials;
    agreement_failures = !agreement_failures;
    validity_failures = !validity_failures;
    timeouts = !timeouts;
    total_steps = !total_steps;
    max_process_steps = !max_process_steps;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%s: %d trials, %d agreement failures, %d validity failures, %d timeouts, %d steps (max %d/process), %.3fs"
    s.protocol s.trials s.agreement_failures s.validity_failures s.timeouts
    s.total_steps s.max_process_steps s.wall_seconds
