open Ts_model

type log_entry =
  | Started of int
  | Stepped of int * bool

type outcome = {
  algorithm : string;
  n : int;
  cs_order : int list;
  cost : int;
  accesses : int;
  steps : int;
  per_process_cost : int array;
  step_log : log_entry list;
}

exception Mutual_exclusion_violated of int * int
exception No_progress of string

type 's arena = {
  alg : 's Algorithm.t;
  regs : Value.t array;
  states : 's option array;  (* None = remainder / finished *)
  last_seen : Value.t option array array;  (* per process, per register *)
  cost : int array;
  mutable accesses : int;
  mutable steps : int;
  mutable in_cs : int option;
  mutable cs_order_rev : int list;
  mutable log_rev : log_entry list;
  entered : bool array;  (* has completed / is past its CS entry *)
}

let create alg =
  let n = alg.Algorithm.num_processes in
  {
    alg;
    regs = Array.make (max 1 alg.Algorithm.num_registers) Value.bot;
    states = Array.make n None;
    last_seen = Array.init n (fun _ -> Array.make (max 1 alg.Algorithm.num_registers) None);
    cost = Array.make n 0;
    accesses = 0;
    steps = 0;
    in_cs = None;
    cs_order_rev = [];
    log_rev = [];
    entered = Array.make n false;
  }

let start s p =
  s.states.(p) <- Some (s.alg.Algorithm.start ~pid:p);
  s.log_rev <- Started p :: s.log_rev

(* A read is charged iff it returns something the process has not already
   observed in that register (cache miss); writes and swaps are always
   charged.  Returns whether the access was charged. *)
let charge_read s p r v =
  let seen = s.last_seen.(p).(r) in
  s.last_seen.(p).(r) <- Some v;
  match seen with
  | Some v' when Value.equal v v' -> false
  | Some _ | None ->
    s.cost.(p) <- s.cost.(p) + 1;
    true

let charge_write s p r v =
  s.last_seen.(p).(r) <- Some v;
  s.cost.(p) <- s.cost.(p) + 1

(* One step of process [p]; returns [`Done] when it re-enters the
   remainder section. *)
let step s p =
  match s.states.(p) with
  | None -> invalid_arg "Arena.step: process not in the protocol"
  | Some st ->
    s.steps <- s.steps + 1;
    let log charged = s.log_rev <- Stepped (p, charged) :: s.log_rev in
    (match s.alg.Algorithm.poised st with
     | Algorithm.Read r ->
       s.accesses <- s.accesses + 1;
       let v = s.regs.(r) in
       let charged = charge_read s p r v in
       log charged;
       s.states.(p) <- Some (s.alg.Algorithm.on_read st v);
       `Continues
     | Algorithm.Write (r, v) ->
       s.accesses <- s.accesses + 1;
       charge_write s p r v;
       log true;
       s.regs.(r) <- v;
       s.states.(p) <- Some (s.alg.Algorithm.on_write st);
       `Continues
     | Algorithm.Swap (r, v) ->
       s.accesses <- s.accesses + 1;
       let old = s.regs.(r) in
       charge_write s p r v;
       log true;
       s.regs.(r) <- v;
       s.states.(p) <- Some (s.alg.Algorithm.on_swap st old);
       `Continues
     | Algorithm.Enter_cs ->
       (match s.in_cs with
        | Some q -> raise (Mutual_exclusion_violated (q, p))
        | None ->
          s.in_cs <- Some p;
          s.cs_order_rev <- p :: s.cs_order_rev;
          s.entered.(p) <- true;
          s.states.(p) <- Some (s.alg.Algorithm.on_enter st);
          log true;
          `Continues)
     | Algorithm.Exit_cs ->
       assert (s.in_cs = Some p);
       s.in_cs <- None;
       s.states.(p) <- Some (s.alg.Algorithm.on_exit st);
       log true;
       `Continues
     | Algorithm.Done ->
       s.states.(p) <- None;
       log true;
       `Done)

let outcome s =
  {
    algorithm = s.alg.Algorithm.name;
    n = s.alg.Algorithm.num_processes;
    cs_order = List.rev s.cs_order_rev;
    cost = Array.fold_left ( + ) 0 s.cost;
    accesses = s.accesses;
    steps = s.steps;
    per_process_cost = Array.copy s.cost;
    step_log = List.rev s.log_rev;
  }

let run_passage s p ~fuel =
  start s p;
  let rec go fuel =
    if fuel = 0 then raise (No_progress "solo passage did not finish")
    else match step s p with `Done -> () | `Continues -> go (fuel - 1)
  in
  go fuel

let serial alg ~order =
  let n = alg.Algorithm.num_processes in
  if Array.length order <> n then invalid_arg "Arena.serial: order size mismatch";
  let s = create alg in
  let fuel = 10_000 * (n + 1) * (n + 1) in
  Array.iter (fun p -> run_passage s p ~fuel) order;
  outcome s

let contended alg =
  let n = alg.Algorithm.num_processes in
  let s = create alg in
  for p = 0 to n - 1 do
    start s p
  done;
  let remaining = ref n in
  let budget = ref (1_000_000 * (n + 1)) in
  while !remaining > 0 do
    if !budget <= 0 then raise (No_progress "contended round-robin stalled");
    for p = 0 to n - 1 do
      if s.states.(p) <> None then begin
        decr budget;
        match step s p with `Done -> decr remaining | `Continues -> ()
      end
    done
  done;
  outcome s


(* Public step-by-step session API: a thin veneer over [arena]. *)
type 's session = 's arena

let session alg = create alg
let start_proc s p = start s p
let active s p = s.states.(p) <> None
let step_proc s p = step s p

let session_outcome s = outcome s
