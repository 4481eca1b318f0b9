type pid = int

type 's status =
  | Running of 's
  | Decided of Value.t

type 's t = {
  procs : 's status array;
  regs : Value.t array;
}

let initial (proto : 's Protocol.t) ~inputs =
  if Array.length inputs <> proto.num_processes then
    invalid_arg "Config.initial: wrong number of inputs";
  {
    procs =
      Array.init proto.num_processes (fun p ->
          Running (proto.init ~pid:p ~input:inputs.(p)));
    regs = Array.make (max 1 proto.num_registers) Value.bot;
  }

let poised (proto : 's Protocol.t) cfg p =
  match cfg.procs.(p) with
  | Decided _ -> None
  | Running s -> Some (proto.poised s)

let with_proc cfg p status =
  let procs = Array.copy cfg.procs in
  procs.(p) <- status;
  { cfg with procs }

(* The one transition, shared by [step] and the successor enumeration
   ([Execution.iter_successors], which has already read [s] and [act]). *)
let perform (proto : 's Protocol.t) cfg p s act ~coin =
  match act, coin with
  | Action.Read r, None -> with_proc cfg p (Running (proto.on_read s cfg.regs.(r)))
  | Action.Write (r, v), None ->
    let regs = Array.copy cfg.regs in
    regs.(r) <- v;
    { procs = (let a = Array.copy cfg.procs in a.(p) <- Running (proto.on_write s); a);
      regs }
  | Action.Swap (r, v), None ->
    let old = cfg.regs.(r) in
    let regs = Array.copy cfg.regs in
    regs.(r) <- v;
    { procs = (let a = Array.copy cfg.procs in a.(p) <- Running (proto.on_swap s old); a);
      regs }
  | Action.Flip, Some b -> with_proc cfg p (Running (proto.on_flip s b))
  | Action.Decide v, None -> with_proc cfg p (Decided v)
  | Action.Flip, None -> invalid_arg "Config.step: flip needs a coin"
  | (Action.Read _ | Action.Write _ | Action.Swap _ | Action.Decide _), Some _ ->
    invalid_arg "Config.step: coin supplied to a non-flip step"

let step (proto : 's Protocol.t) cfg p ~coin =
  match cfg.procs.(p) with
  | Decided _ -> invalid_arg "Config.step: process has decided"
  | Running s ->
    let act = proto.poised s in
    perform proto cfg p s act ~coin, act

let has_decided cfg p =
  match cfg.procs.(p) with Decided v -> Some v | Running _ -> None

let decided_values cfg =
  Array.fold_left
    (fun acc st ->
      match st with
      | Decided v -> if List.exists (Value.equal v) acc then acc else v :: acc
      | Running _ -> acc)
    [] cfg.procs
  |> List.sort Value.compare

(* Structural equality.  Registers compare via [Value.equal]; process
   statuses compare per element, so only the (small) protocol state ever
   meets the polymorphic comparator.  The search tables use the packed
   keys in [Ckey], which this definition agrees with. *)
let equal_status a b =
  match a, b with
  | Decided v, Decided w -> Value.equal v w
  | Running s, Running s' -> Stdlib.compare s s' = 0
  | (Decided _ | Running _), _ -> false

let array_for_all2 eq a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (eq a.(i) b.(i) && go (i + 1)) in
  go 0

let equal a b =
  array_for_all2 equal_status a.procs b.procs && array_for_all2 Value.equal a.regs b.regs

let register cfg r = cfg.regs.(r)

let pp (proto : 's Protocol.t) ppf cfg =
  let pp_status ppf = function
    | Decided v -> Fmt.pf ppf "decided %a" Value.pp v
    | Running s -> proto.pp_state ppf s
  in
  Fmt.pf ppf "@[<v>regs: %a@,%a@]"
    Fmt.(array ~sep:(any " ") Value.pp)
    cfg.regs
    Fmt.(array ~sep:cut (pair ~sep:(any ": ") (fmt "p%d") pp_status))
    (Array.mapi (fun i st -> i, st) cfg.procs)
