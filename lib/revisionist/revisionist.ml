open Ts_model
module Budget = Ts_core.Budget
module Covering = Ts_core.Covering
module Theorem = Ts_core.Theorem
module Obs = Ts_obs.Obs

type pid = int

type certificate = {
  protocol_name : string;
  n : int;
  inputs : Value.t array;
  excluded : pid list;
  schedule : Execution.event list;
  trace : Execution.trace;
  registers_written : Action.reg list;
  parked : (pid * Action.reg) list;
  covered_registers : Action.reg list;
  fresh_register : Action.reg;
  bound : int;
  revisions : int;
  private_steps : int;
}

type progress = {
  max_solo : int;
  parked : int;
  revisions : int;
  private_steps : int;
}

type stop = Theorem.stop =
  | Out_of_budget of Budget.breach
  | Wall of string

type ('c, 'p) outcome = ('c, 'p) Theorem.outcome =
  | Complete of 'c
  | Partial of stop * 'p

(* A construction that cannot go on; [construct] reports it as a [Wall]. *)
exception Stuck of string

(* Mutable search counters, shared between the construction and the
   partial-result reporting when it stops short. *)
type counters = {
  mutable steps : int;  (* private steps simulated, failed branches included *)
  mutable revs : int;  (* backed-out choice points *)
  mutable deepest : int;  (* high-water parking level *)
}

(* The last element of a non-empty list and everything before it. *)
let split_last l =
  match List.rev l with
  | [] -> invalid_arg "split_last"
  | last :: rev_init -> (List.rev rev_init, last)

let construct_exn ~faults ~budget ~max_solo ~(c : counters)
    (proto : 's Protocol.t) : certificate =
  let n = proto.Protocol.num_processes in
  if n < 2 then invalid_arg "Revisionist.construct: need at least 2 processes";
  let excluded = List.sort Int.compare (List.map fst (Fault.crashes faults)) in
  let survivors =
    List.filter (fun p -> not (List.mem p excluded)) (List.init n Fun.id)
  in
  let n_surv = List.length survivors in
  if n_surv < 2 then
    invalid_arg "Revisionist.construct: fewer than 2 surviving processes";
  let target = n_surv - 1 in
  let inputs = Theorem.canonical_inputs n in
  let cfg0 = Config.initial proto ~inputs in
  (* [private_run cfg z ~covered _ count k] advances [z] alone from [cfg]
     until it is poised to write a register outside [covered], then hands
     the pre-park configuration (the fresh write still pending), the
     segment of events taken, and the fresh register to [k].  [k]
     answering [None] — a deeper parking level failed — demands the next
     alternative, so coin flips below are genuine revision points.  [None]
     overall means no revision of this run parks: the process decided
     first, or the [max_solo] allowance ran out. *)
  let rec private_run cfg z ~covered steps_rev count k =
    Budget.charge budget 1;
    c.steps <- c.steps + 1;
    match Config.poised proto cfg z with
    | None -> None
    | Some a -> (
      match Action.written_register a with
      | Some r when not (List.mem r covered) -> k (cfg, List.rev steps_rev, r)
      | _ ->
        if count >= max_solo then None
        else (
          match a with
          | Action.Decide _ -> None
          | Action.Flip ->
            let attempt b =
              let cfg', _ = Config.step proto cfg z ~coin:(Some b) in
              private_run cfg' z ~covered
                (Execution.flip z b :: steps_rev)
                (count + 1) k
            in
            (match attempt false with
             | Some _ as s -> s
             | None ->
               c.revs <- c.revs + 1;
               attempt true)
          | _ ->
            let cfg', _ = Config.step proto cfg z ~coin:None in
            private_run cfg' z ~covered
              (Execution.ev z :: steps_rev)
              (count + 1) k))
  in
  (* Park processes one by one; trying the remaining candidates in order
     at each level is the other revision axis. *)
  let rec place cfg ~covered ~parked ~active ~segs_rev ~depth =
    if depth > c.deepest then c.deepest <- depth;
    if depth = target then Some (List.rev segs_rev, List.rev parked, cfg)
    else
      let rec candidates = function
        | [] -> None
        | z :: rest -> (
          let attempt =
            private_run cfg z ~covered [] 0 (fun (cfg_park, seg, r) ->
                place cfg_park ~covered:(r :: covered)
                  ~parked:((z, r) :: parked)
                  ~active:(List.filter (fun p -> p <> z) active)
                  ~segs_rev:(seg :: segs_rev) ~depth:(depth + 1))
          in
          match attempt with
          | Some _ as s -> s
          | None ->
            c.revs <- c.revs + 1;
            candidates rest)
      in
      candidates active
  in
  match
    place cfg0 ~covered:[] ~parked:[] ~active:survivors ~segs_rev:[] ~depth:0
  with
  | None ->
    raise
      (Stuck
         (Printf.sprintf
            "no revision of the parking order parks %d processes within %d \
             private steps each"
            target max_solo))
  | Some (segs, parked, cfg_parked) ->
    (* The parked set must be well spread — each pending write distinct —
       or the release below would not write [target] registers. *)
    let pset = Pset.of_list (List.map fst parked) in
    if not (Covering.well_spread proto cfg_parked pset) then
      raise (Stuck "internal: parked processes are not well spread");
    let release = List.map (fun (p, _) -> Execution.ev p) parked in
    let schedule = List.concat segs @ release in
    let _, trace = Execution.apply proto cfg0 schedule in
    let written = Execution.written_registers trace in
    if List.length written < target then
      raise (Stuck "internal: release wrote fewer registers than were parked");
    let covered_registers, fresh_register = split_last (List.map snd parked) in
    Obs.Metrics.incr "revisionist.constructs";
    Obs.Metrics.incr ~by:target "revisionist.parks";
    {
      protocol_name = proto.Protocol.name;
      n;
      inputs;
      excluded;
      schedule;
      trace;
      registers_written = written;
      parked;
      covered_registers = List.sort_uniq Int.compare covered_registers;
      fresh_register;
      bound = target;
      revisions = c.revs;
      private_steps = c.steps;
    }

let construct ?(faults = Fault.none) ?(budget = Budget.unlimited)
    ?(max_solo = 64) proto =
  let c = { steps = 0; revs = 0; deepest = 0 } in
  let progress () =
    { max_solo; parked = c.deepest; revisions = c.revs; private_steps = c.steps }
  in
  let sp = Obs.enter ~cat:"revisionist" "revisionist.construct" in
  let finish outcome =
    Obs.set_int sp "private_steps" c.steps;
    Obs.set_int sp "revisions" c.revs;
    Obs.set_int sp "deepest" c.deepest;
    Obs.set_bool sp "complete"
      (match outcome with Complete _ -> true | Partial _ -> false);
    Obs.close sp;
    Obs.Metrics.incr ~by:c.steps "revisionist.private_steps";
    Obs.Metrics.incr ~by:c.revs "revisionist.revisions";
    outcome
  in
  match construct_exn ~faults ~budget ~max_solo ~c proto with
  | cert -> finish (Complete cert)
  | exception Budget.Exhausted b ->
    finish (Partial (Out_of_budget b, progress ()))
  | exception Stuck msg ->
    Obs.Metrics.incr "revisionist.walls";
    finish (Partial (Wall msg, progress ()))
  | exception e ->
    Obs.close sp;
    raise e

let escalate ?budget ?retries ?faults proto ~initial_solo =
  Theorem.escalate ?retries ~initial:initial_solo (fun max_solo ->
      construct ?faults ?budget ~max_solo proto)

let witness ?budget ?max_solo proto =
  Theorem.policy ?allowance:max_solo ~n:proto.Protocol.num_processes
    (fun max_solo -> construct ?budget ~max_solo proto)

let verify (cert : certificate) (proto : 's Protocol.t) : (unit, string) result
    =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  if proto.Protocol.num_processes <> cert.n then
    fail "protocol has %d processes, certificate says %d"
      proto.Protocol.num_processes cert.n
  else if cert.bound <> cert.n - List.length cert.excluded - 1 then
    fail "claimed bound %d is not survivors - 1" cert.bound
  else if
    List.exists
      (fun (e : Execution.event) -> List.mem e.Execution.pid cert.excluded)
      cert.schedule
  then fail "schedule steps a crashed process"
  else
    match
      Execution.apply proto (Config.initial proto ~inputs:cert.inputs)
        cert.schedule
    with
    | exception Invalid_argument m -> fail "schedule not applicable: %s" m
    | _, trace ->
      let written = Execution.written_registers trace in
      if written <> cert.registers_written then
        fail "recorded register set differs from the replay's"
      else if List.length written < cert.bound then
        fail "replay writes %d distinct registers, below the bound %d"
          (List.length written) cert.bound
      else
        let writes_r p r (s : Execution.step_record) =
          s.Execution.actor = p
          &&
          match Action.written_register s.Execution.action with
          | Some r' -> r' = r
          | None -> false
        in
        (match
           List.find_opt
             (fun (p, r) -> not (List.exists (writes_r p r) trace))
             cert.parked
         with
        | Some (p, r) ->
          fail "parked process %d never writes register %d in the replay" p r
        | None -> Ok ())

let pp_certificate ppf (c : certificate) =
  Fmt.pf ppf
    "@[<v>revisionist witness for %s (n = %d%s):@,\
     space bound %d: %d distinct registers written {%s}@,\
     parked: %s@,\
     schedule: %d steps (%d revisions, %d private steps simulated)@]"
    c.protocol_name c.n
    (match c.excluded with
     | [] -> ""
     | l ->
       Printf.sprintf ", crashed {%s}"
         (String.concat "," (List.map string_of_int l)))
    c.bound
    (List.length c.registers_written)
    (String.concat "," (List.map string_of_int c.registers_written))
    (String.concat ", "
       (List.map (fun (p, r) -> Printf.sprintf "p%d@R%d" p r) c.parked))
    (List.length c.schedule)
    c.revisions c.private_steps

let pp_stop = Theorem.pp_stop

let pp_progress ppf (p : progress) =
  Fmt.pf ppf
    "allowance %d: parked %d, %d revisions, %d private steps" p.max_solo
    p.parked p.revisions p.private_steps
