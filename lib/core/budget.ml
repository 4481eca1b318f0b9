type breach =
  | Deadline of float
  | Node_cap of int
  | Heap_cap of int

exception Exhausted of breach

type limits = {
  allowance : float;  (* seconds granted, for reporting *)
  deadline : float;  (* absolute Unix.gettimeofday cutoff, infinity if none *)
  max_nodes : int;  (* max_int if none *)
  max_heap_words : int;  (* max_int if none *)
}

type t = {
  limits : limits option;  (* None: the unlimited guard *)
  nodes : int Atomic.t;
}

let unlimited = { limits = None; nodes = Atomic.make 0 }

let create ?deadline ?max_nodes ?max_heap_words () =
  let pos name = function
    | Some x when x <= 0 -> invalid_arg ("Budget.create: " ^ name ^ " must be positive")
    | _ -> ()
  in
  pos "max_nodes" max_nodes;
  pos "max_heap_words" max_heap_words;
  (match deadline with
   | Some d when d <= 0.0 -> invalid_arg "Budget.create: deadline must be positive"
   | _ -> ());
  let allowance = Option.value ~default:infinity deadline in
  {
    limits =
      Some
        {
          allowance;
          deadline =
            (match deadline with
             | Some d -> Unix.gettimeofday () +. d
             | None -> infinity);
          max_nodes = Option.value ~default:max_int max_nodes;
          max_heap_words = Option.value ~default:max_int max_heap_words;
        };
    nodes = Atomic.make 0;
  }

let is_unlimited t = t.limits = None
let spent t = Atomic.get t.nodes

(* The clock and the heap are sampled only when the node counter crosses a
   multiple of [sample_every]: gettimeofday and Gc.quick_stat are cheap but
   not free, and searches charge per expanded configuration. *)
let sample_every = 256

let slow_breach l =
  if Unix.gettimeofday () > l.deadline then Some (Deadline l.allowance)
  else if l.max_heap_words < max_int
          && (Gc.quick_stat ()).Gc.heap_words > l.max_heap_words then
    Some (Heap_cap l.max_heap_words)
  else None

let breached t =
  match t.limits with
  | None -> None
  | Some l ->
    if Atomic.get t.nodes > l.max_nodes then Some (Node_cap l.max_nodes)
    else slow_breach l

let check t =
  match breached t with None -> () | Some b -> raise (Exhausted b)

let charge t k =
  match t.limits with
  | None -> ()
  | Some l ->
    (* the node counter is the one structure domain-parallel searches
       genuinely share; it is atomic by design, and logging it as such
       lets the race detector certify exactly that *)
    Ts_obs.Obs.access ~loc:"budget.nodes" Ts_obs.Obs.Write ~atomic:true;
    let before = Atomic.fetch_and_add t.nodes k in
    let after = before + k in
    if after > l.max_nodes then raise (Exhausted (Node_cap l.max_nodes));
    if before / sample_every <> after / sample_every then
      match slow_breach l with None -> () | Some b -> raise (Exhausted b)

let pp_breach ppf = function
  | Deadline s -> Fmt.pf ppf "wall-clock deadline (%gs) exceeded" s
  | Node_cap n -> Fmt.pf ppf "search-node cap (%d nodes) exceeded" n
  | Heap_cap w -> Fmt.pf ppf "live-heap cap (%d words) exceeded" w
