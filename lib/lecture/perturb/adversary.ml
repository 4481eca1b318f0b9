open Ts_model

type report = {
  object_name : string;
  n : int;
  cover : (int * Action.reg) list;
  distinct_covered : int;
  probe_accesses : int;
  probe_steps : int;
  base_probe : Value.t;
  hidden_probe : Value.t;
  completed_probe : Value.t;
  hidden_invisible : bool;
  completed_visible : bool;
  jtt_bound : int;
}

(* Drive [pid] until it is poised to write a register outside [avoid],
   issuing fresh [op]s as needed.  Leaves the write pending ("covering"). *)
let park session pid op ~avoid =
  let max_ops = 64 and max_steps = 100_000 in
  let rec attempt ops_left =
    if ops_left = 0 then
      invalid_arg "Adversary.park: process never writes a fresh register";
    if not (Runner.busy session pid) then Runner.invoke session pid op;
    let rec steps fuel =
      if fuel = 0 then invalid_arg "Adversary.park: operation too long"
      else
        match Runner.poised session pid with
        | Some (Impl.Write (r, _)) when not (List.mem r avoid) -> Some r
        | Some (Impl.Return _) ->
          (* a Return-poised step must complete the operation *)
          (match Runner.step session pid with
           | `Returned _ -> ()
           | `Continues ->
             invalid_arg "Adversary.park: Return-poised step did not return");
          None
        | Some (Impl.Read _ | Impl.Write _) ->
          (* a memory step never completes the operation *)
          (match Runner.step session pid with
           | `Continues -> ()
           | `Returned _ ->
             invalid_arg "Adversary.park: memory step unexpectedly returned");
          steps (fuel - 1)
        | None -> None
    in
    match steps max_steps with
    | Some r -> r
    | None -> attempt (ops_left - 1)
  in
  attempt max_ops

(* Build a covering configuration: each pid in [pids], in order, parked on
   a write to a register none of the previous ones covers. *)
let build_cover session pids op =
  List.fold_left
    (fun acc pid ->
      let r = park session pid op ~avoid:(List.map snd acc) in
      acc @ [ pid, r ])
    [] pids

(* Perform the pending block write of every covering process.  Each pid
   was parked by [park] poised on a Write, and a write step never completes
   an operation, so the step must report [`Continues]. *)
let block_write session cover =
  List.iter
    (fun (pid, _) ->
      match Runner.step session pid with
      | `Continues -> ()
      | `Returned _ ->
        invalid_arg "Adversary.block_write: covering write unexpectedly returned")
    cover

let probe_on session prober probe =
  Runner.invoke session prober probe;
  let v, steps = Runner.finish session prober in
  v, steps, List.length (Runner.op_accesses session prober)

let run_general impl ~perturb ~disturb ~probe =
  let n = impl.Impl.num_processes in
  if n < 2 then invalid_arg "Adversary.run: need n >= 2";
  let prober = n - 1 in
  (* Stage n-1: the full covering construction (the space measurement). *)
  let s = Runner.create impl in
  let cover = build_cover s (List.init (n - 1) Fun.id) perturb in
  let full = Runner.clone s in
  block_write full cover;
  let _, probe_steps, probe_accesses = probe_on full prober probe in
  (* Stage n-2: one process left over for the hiding demonstration. *)
  let s2 = Runner.create impl in
  let cover2 = build_cover s2 (List.init (n - 2) Fun.id) perturb in
  let lambda_proc = n - 2 in
  let base = Runner.clone s2 in
  block_write base cover2;
  let base_probe, _, _ = probe_on base prober probe in
  let hid = Runner.clone s2 in
  (* λ truncated just before its first fresh write: its covered writes are
     then obliterated by the block write — invisible to the prober.  The
     parked register index is irrelevant here (only the truncation point
     matters), so discarding it is sound. *)
  ignore (park hid lambda_proc disturb ~avoid:(List.map snd cover2) : int);
  block_write hid cover2;
  let hidden_probe, _, _ = probe_on hid prober probe in
  let comp = Runner.clone s2 in
  (* λ run to completion: its fresh write survives the block write. *)
  Runner.invoke comp lambda_proc disturb;
  (* only completion matters, not λ's response or step count: the probe
     below measures visibility of the completed write, so the discarded
     pair carries no information this construction needs *)
  ignore (Runner.finish comp lambda_proc : Value.t * int);
  block_write comp cover2;
  let completed_probe, _, _ = probe_on comp prober probe in
  {
    object_name = impl.Impl.name;
    n;
    cover;
    distinct_covered = List.length (List.sort_uniq Stdlib.compare (List.map snd cover));
    probe_accesses;
    probe_steps;
    base_probe;
    hidden_probe;
    completed_probe;
    hidden_invisible = Value.equal hidden_probe base_probe;
    completed_visible = not (Value.equal completed_probe base_probe);
    jtt_bound = n - 1;
  }

let run impl ~perturb ~probe = run_general impl ~perturb ~disturb:perturb ~probe

let run_counter ~n =
  run_general (Counter.make ~n) ~perturb:Counter.Inc ~disturb:Counter.Inc
    ~probe:Counter.Read_count

let run_maxreg ~n =
  run_general (Maxreg.make ~n) ~perturb:(Maxreg.Write_max 1)
    ~disturb:(Maxreg.Write_max 99) ~probe:Maxreg.Read_max

let run_snapshot ~n =
  run_general (Snapshot.make ~n) ~perturb:(Snapshot.Update (Value.int 1))
    ~disturb:(Snapshot.Update (Value.int 99)) ~probe:Snapshot.Scan

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%s, n=%d: %d processes cover %d distinct registers (JTT bound %d)@,\
     probe: %d steps, %d distinct registers accessed@,\
     hiding: base=%a truncated=%a (invisible: %b), completed=%a (visible: %b)@]"
    r.object_name r.n (List.length r.cover) r.distinct_covered r.jtt_bound
    r.probe_steps r.probe_accesses Value.pp r.base_probe Value.pp r.hidden_probe
    r.hidden_invisible Value.pp r.completed_probe r.completed_visible
