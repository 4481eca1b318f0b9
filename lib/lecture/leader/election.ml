open Ts_model

type op = Elect

let reg node v side = ((node - 1) * 4) + (v * 2) + side

let rec leaves_for n acc = if acc >= n then acc else leaves_for n (2 * acc)

let path_of ~leaves p =
  let rec go c acc = if c <= 1 then List.rev acc else go (c / 2) ((c / 2, c land 1) :: acc) in
  go (leaves + p) []

type phase =
  | Scan of { step : int; s_own : int; s_riv : int; my_own : int; my_riv : int }
  | Incr of int
  | Ret of bool

type state = {
  path : (int * int) list;
  level : int;
  pref : int;  (* current proposal in the node's match: a side, 0 or 1 *)
  phase : phase;
}

let fresh_scan = Scan { step = 0; s_own = 0; s_riv = 0; my_own = 0; my_riv = 0 }

let count_of = function Value.Bot -> 0 | v -> Value.to_int v

let node_side st = List.nth st.path st.level

(* The register the scan reads: own-proposal slots (step 0,1) first. *)
let scan_target st step =
  let node, _ = node_side st in
  let v = if step < 2 then st.pref else 1 - st.pref in
  reg node v (step mod 2)

(* The match at the current node decided [winner]. *)
let decided st winner =
  let _, side = node_side st in
  if winner <> side then { st with phase = Ret false }
  else if st.level + 1 >= List.length st.path then { st with phase = Ret true }
  else
    let level = st.level + 1 in
    let _, side' = List.nth st.path level in
    { st with level; pref = side'; phase = fresh_scan }

let finish_scan st s_own s_riv my_own my_riv =
  if s_own >= s_riv + 2 then decided st st.pref
  else if s_riv > s_own then { st with pref = 1 - st.pref; phase = Incr (my_riv + 1) }
  else { st with phase = Incr (my_own + 1) }

let make ~n : (state, op) Impl.t =
  if n < 1 then invalid_arg "Election.make: n >= 1";
  let leaves = leaves_for n 1 in
  {
    name = Printf.sprintf "tournament-election-%d" n;
    description = "obstruction-free leader election: tree of 2-party racing matches";
    num_processes = n;
    num_registers = 4 * max 1 (leaves - 1);
    begin_op =
      (fun ~pid Elect ->
        let path = path_of ~leaves pid in
        match path with
        | [] -> { path; level = 0; pref = 0; phase = Ret true }
        | (_, side) :: _ -> { path; level = 0; pref = side; phase = fresh_scan });
    poised =
      (fun st ->
        match st.phase with
        | Scan { step; _ } -> Impl.Read (scan_target st step)
        | Incr c ->
          let node, side = node_side st in
          Impl.Write (reg node st.pref side, Value.int c)
        | Ret b -> Impl.Return (Value.bool b));
    on_read =
      (fun st v ->
        match st.phase with
        | Scan s ->
          let c = count_of v in
          let _, side = node_side st in
          let own_phase = s.step < 2 in
          let slot = s.step mod 2 in
          let s_own = if own_phase then s.s_own + c else s.s_own in
          let s_riv = if own_phase then s.s_riv else s.s_riv + c in
          let my_own = if own_phase && slot = side then c else s.my_own in
          let my_riv = if (not own_phase) && slot = side then c else s.my_riv in
          if s.step = 3 then finish_scan st s_own s_riv my_own my_riv
          else { st with phase = Scan { step = s.step + 1; s_own; s_riv; my_own; my_riv } }
        | Incr _ | Ret _ -> invalid_arg "Election.on_read");
    on_write =
      (fun st ->
        match st.phase with
        | Incr _ -> { st with phase = fresh_scan }
        | Scan _ | Ret _ -> invalid_arg "Election.on_write");
    pp_op = (fun ppf Elect -> Fmt.string ppf "elect");
  }
