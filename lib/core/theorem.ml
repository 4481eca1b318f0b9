open Ts_model
module Obs = Ts_obs.Obs

type 's nice = {
  alpha : Execution.event list;
  cfg : 's Config.t;
  q_pair : Pset.t;
  cover : Pset.t;
}

let fail fmt = Format.kasprintf (fun s -> raise (Valency.Horizon_exceeded s)) fmt

let apply t cfg sched = fst (Lemmas.apply_schedule t cfg sched)

(* One round of Lemma 4's constructed sequence D_0, D_1, ... *)
type 's iteration = {
  d : 's Config.t;
  v : Action.reg list;  (* registers covered by R_i in [d] *)
}

(* Transition pieces from D_i to D_{i+1}: alpha_i = phi_i · beta_i · psi_i *)
type transition = {
  t_phi : Execution.event list;
  t_beta : Execution.event list;
  t_psi : Execution.event list;
}

let transition_schedule tr = tr.t_phi @ tr.t_beta @ tr.t_psi

let rec lemma4 t c p =
  let proto = Valency.protocol t in
  let card = Pset.cardinal p in
  if card < 2 then invalid_arg "Theorem.lemma4: |P| must be >= 2";
  if Obs.tracing () then
    Obs.instant ~cat:"log.debug" (Format.asprintf "lemma4: P=%a" Pset.pp p);
  if not (Valency.is_bivalent t c p) then
    fail "lemma4: P=%a not bivalent from C within horizon" Pset.pp p;
  if card = 2 then { alpha = []; cfg = c; q_pair = p; cover = Pset.empty }
  else begin
    Obs.with_span ~cat:"lemma" "lemma4" @@ fun l4_sp ->
    Obs.set_int l4_sp "participants" card;
    (* Lemma 1: peel off a process z, keeping P - {z} bivalent. *)
    let { Lemmas.phi = gamma; z } = Lemmas.lemma1 t c p in
    let d = apply t c gamma in
    let p' = Pset.remove z p in
    (* D_0 by the induction hypothesis. *)
    let rec0 = lemma4 t d p' in
    let iterations : 's iteration list ref = ref [] in
    let transitions : transition list ref = ref [] in
    let max_rounds = (1 lsl min proto.Protocol.num_registers 16) + 2 in
    (* Walk D_i -> D_{i+1} until two rounds cover the same register set.
       Each round runs inside its own span; the recursion happens outside
       it (a span cannot bracket a tail call), so the round's decision is
       computed under the span and acted on after it closes. *)
    let rec build d_i q_i round =
      Budget.check (Valency.budget t);
      if round > max_rounds then
        fail "lemma4: no pigeonhole repeat after %d rounds" max_rounds;
      let decision =
        Obs.with_span ~cat:"lemma" "lemma4.round" @@ fun sp ->
        Obs.set_int sp "round" round;
        let r_i = Pset.diff p' q_i in
        let v_i = Covering.covered_set proto d_i r_i in
        Obs.set_int sp "registers_covered" (List.length v_i);
        let repeat =
          List.find_index (fun it -> it.v = v_i) (List.rev !iterations)
        in
        match repeat with
        | Some i0 ->
          if Obs.tracing () then
            Obs.instant ~cat:"log.debug"
              (Format.asprintf "lemma4: pigeonhole at rounds %d/%d over {%a}" i0
                 round Fmt.(list ~sep:comma (fmt "R%d")) v_i);
          Obs.set_bool sp "pigeonhole" true;
          `Finish (r_i, v_i, i0)
        | None ->
          iterations := { d = d_i; v = v_i } :: !iterations;
          if Pset.is_empty r_i then begin
            (* Empty covering set: D_{i+1} = D_i with an empty transition;
               the next round repeats V = [] and triggers the pigeonhole. *)
            transitions := { t_phi = []; t_beta = []; t_psi = [] } :: !transitions;
            `Next (d_i, q_i)
          end
          else begin
            let l3 = Lemmas.lemma3 t d_i ~p:p' ~r:r_i in
            let beta = Covering.block_write r_i in
            let d_phi_beta =
              Obs.with_span ~cat:"covering" "block_write" @@ fun bsp ->
              Obs.set_int bsp "writers" (Pset.cardinal r_i);
              apply t d_i (l3.Lemmas.phi3 @ beta)
            in
            let rec_i = lemma4 t d_phi_beta p' in
            transitions :=
              { t_phi = l3.Lemmas.phi3; t_beta = beta; t_psi = rec_i.alpha }
              :: !transitions;
            `Next (rec_i.cfg, rec_i.q_pair)
          end
      in
      match decision with
      | `Finish (r_i, v_i, i0) -> finish d_i q_i r_i v_i i0
      | `Next (d, q) -> build d q (round + 1)
    (* Index j = current round; V_j equals V_{i0}: insert z's hidden steps
       at round i0 and replay the rest. *)
    and finish d_j q_j r_j v_j i0 =
      (* the covering extension: insert z's hidden solo steps at the
         pigeonhole round so z joins the cover invisibly *)
      Obs.with_span ~cat:"covering" "covering_extension" @@ fun sp ->
      Obs.set_int sp "pigeonhole_round" i0;
      let iters = List.rev !iterations in
      let trans = List.rev !transitions in
      let it0 = List.nth iters i0 in
      let tr0 = List.nth trans i0 in
      (* z's solo deciding execution from D_{i0}·phi_{i0}, cut just before
         its first write outside V_{i0} (Lemma 2 guarantees one exists). *)
      let cfg_phi = apply t it0.d tr0.t_phi in
      let zeta = Lemmas.solo_deciding t cfg_phi z in
      let zeta', _, fresh =
        Lemmas.split_at_uncovered_write t cfg_phi z ~covered:it0.v ~zeta
      in
      let before = List.filteri (fun k _ -> k < i0) trans in
      let after = List.filteri (fun k _ -> k > i0) trans in
      let alpha =
        gamma @ rec0.alpha
        @ List.concat_map transition_schedule before
        @ tr0.t_phi @ zeta' @ tr0.t_beta @ tr0.t_psi
        @ List.concat_map transition_schedule after
      in
      let final = apply t c alpha in
      (* The paper's indistinguishability claim, checked structurally: the
         processes of P' and all registers agree between C·alpha and D_j. *)
      Pset.iter
        (fun pr ->
          if final.Config.procs.(pr) <> d_j.Config.procs.(pr) then
            fail "lemma4: hidden insertion visible to p%d" pr)
        p';
      if final.Config.regs <> d_j.Config.regs then
        fail "lemma4: hidden insertion altered register contents";
      let cover = Pset.add z r_j in
      if not (Covering.well_spread proto final cover) then
        fail "lemma4: final covering set not well spread";
      (match Config.covers proto final z with
       | Some r when not (List.mem r v_j) -> ()
       | Some r -> fail "lemma4: z covers R%d which is already covered" r
       | None -> fail "lemma4: z no longer covers a register");
      if not (Valency.is_bivalent t final q_j) then
        fail "lemma4: final pair %a not verifiably bivalent" Pset.pp q_j;
      ignore fresh;
      Obs.set_int sp "registers_covered" (Pset.cardinal cover);
      Obs.set_int sp "alpha_len" (List.length alpha);
      { alpha; cfg = final; q_pair = q_j; cover }
    in
    build rec0.cfg rec0.q_pair 0
  end

type certificate = {
  protocol_name : string;
  n : int;
  inputs : Value.t array;
  schedule : Execution.event list;
  trace : Execution.trace;
  registers_written : Action.reg list;
  covered_registers : Action.reg list;
  fresh_register : Action.reg;
  oracle_searches : int;
}

let canonical_inputs n =
  Array.init n (fun p -> if p = 1 then Value.int 1 else Value.int 0)

let theorem1 t =
  let proto = Valency.protocol t in
  let n = proto.Protocol.num_processes in
  if n < 2 then invalid_arg "Theorem.theorem1: need n >= 2";
  (* Proposition 2: p0 input 0, p1 input 1 makes {p0,p1} bivalent. *)
  let inputs = canonical_inputs n in
  let i0 = Config.initial proto ~inputs in
  if Obs.tracing () then
    Obs.instant ~cat:"log.info"
      (Printf.sprintf "theorem1: %s, n=%d, horizon=%d" proto.Protocol.name n
         (Valency.horizon t));
  Obs.with_span ~cat:"theorem" "theorem1" @@ fun t1_sp ->
  Obs.set_int t1_sp "n" n;
  Obs.set_str t1_sp "protocol" proto.Protocol.name;
  (match Valency.can_decide t i0 (Pset.singleton 0) Valency.zero with
   | Some _ -> ()
   | None -> fail "theorem1: {p0} cannot decide 0 solo (Prop. 2 fails)");
  (match Valency.can_decide t i0 (Pset.singleton 1) Valency.one with
   | Some _ -> ()
   | None -> fail "theorem1: {p1} cannot decide 1 solo (Prop. 2 fails)");
  let finish schedule covered fresh =
    let final_cfg, trace = Lemmas.apply_schedule t i0 schedule in
    ignore final_cfg;
    let written = Execution.written_registers trace in
    if List.length written < n - 1 then
      failwith
        (Format.asprintf
           "theorem1: construction wrote only %d registers for n=%d — %s"
           (List.length written) n
           "the protocol under test violates consensus or the engine is wrong");
    {
      protocol_name = proto.Protocol.name;
      n;
      inputs;
      schedule;
      trace;
      registers_written = written;
      covered_registers = covered;
      fresh_register = fresh;
      oracle_searches = Valency.searches t;
    }
  in
  if n = 2 then begin
    (* The paper's base case: if p0 decides solo without writing, p1 cannot
       distinguish the result from its own solo world and decides 1. *)
    let zeta = Lemmas.solo_deciding t i0 0 in
    let zeta', _, fresh =
      Lemmas.split_at_uncovered_write t i0 0 ~covered:[] ~zeta
    in
    ignore zeta';
    finish zeta [] fresh
  end
  else begin
    let all = Pset.all n in
    let nice = lemma4 t i0 all in
    (* Lemma 3 once more from the nice configuration... *)
    let l3 = Lemmas.lemma3 t nice.cfg ~p:all ~r:nice.cover in
    let z =
      match Pset.to_list (Pset.remove l3.Lemmas.q nice.q_pair) with
      | z :: _ -> z
      | [] -> fail "theorem1: q-pair collapsed"
    in
    (* ... and Lemma 2 on the remaining pair process z: its solo deciding
       execution from C·alpha·phi must write outside the covered set. *)
    let cfg'' = apply t nice.cfg l3.Lemmas.phi3 in
    let covered = Covering.covered_set (Valency.protocol t) cfg'' nice.cover in
    let zeta = Lemmas.solo_deciding t cfg'' z in
    let _, _, fresh =
      Lemmas.split_at_uncovered_write t cfg'' z ~covered ~zeta
    in
    let beta = Covering.block_write nice.cover in
    let schedule = nice.alpha @ l3.Lemmas.phi3 @ zeta @ beta in
    finish schedule covered fresh
  end

type progress = {
  horizon : int;
  searches : int;
  nodes_expanded : int;
}

type stop =
  | Out_of_budget of Budget.breach
  | Wall of string

type ('c, 'p) outcome =
  | Complete of 'c
  | Partial of stop * 'p

let progress_of t =
  let s = Valency.stats t in
  { horizon = Valency.horizon t; searches = s.Valency.searches;
    nodes_expanded = s.Valency.nodes_expanded }

let theorem1_outcome t =
  match theorem1 t with
  | cert -> Complete cert
  | exception Budget.Exhausted b ->
    if Obs.tracing () then
      Obs.instant ~cat:"log.info"
        (Format.asprintf "theorem1: partial after %d searches — %a"
           (Valency.searches t) Budget.pp_breach b);
    Partial (Out_of_budget b, progress_of t)
  | exception Valency.Horizon_exceeded msg ->
    if Obs.tracing () then
      Obs.instant ~cat:"log.info"
        (Printf.sprintf "theorem1: horizon %d insufficient (%s)"
           (Valency.horizon t) msg);
    Partial (Wall msg, progress_of t)

(* Geometric backoff on a wall: at most [retries] doublings, a fresh
   attempt each time.  Any budget lives in [attempt], so it spans every
   attempt and a capped run stops at its breach instead of looping. *)
let escalate ?(retries = 4) ~initial attempt =
  if initial < 1 then invalid_arg "Theorem.escalate: bad initial allowance";
  if retries < 0 then invalid_arg "Theorem.escalate: negative retries";
  let rec go allowance k =
    match attempt allowance with
    | Partial (Wall msg, _) when k < retries ->
      if Obs.tracing () then
        Obs.instant ~cat:"log.info"
          (Printf.sprintf "horizon %d insufficient (%s); deepening to %d"
             allowance msg (2 * allowance));
      go (2 * allowance) (k + 1)
    | outcome -> (outcome, allowance)
  in
  go initial 0

(* The witness policy both engines share: an explicit allowance is a
   promise (one attempt, no escalation); without one the allowance
   escalates from 10·n. *)
let policy ?allowance ~n attempt =
  match allowance with
  | Some a -> (attempt a, a)
  | None -> escalate ~initial:(10 * n) attempt

let theorem1_escalate ?budget ?retries proto ~initial_horizon =
  escalate ?retries ~initial:initial_horizon (fun horizon ->
      theorem1_outcome (Valency.create ?budget proto ~horizon))

let witness ?budget ?horizon proto =
  policy ?allowance:horizon ~n:proto.Protocol.num_processes (fun horizon ->
      theorem1_outcome (Valency.create ?budget proto ~horizon))

let verify cert (proto : 's Protocol.t) =
  if proto.Protocol.num_processes <> cert.n then Error "process count mismatch"
  else
    match
      Execution.apply proto (Config.initial proto ~inputs:cert.inputs) cert.schedule
    with
    | exception exn -> Error ("replay failed: " ^ Printexc.to_string exn)
    | _, trace ->
      let written = Execution.written_registers trace in
      if written <> cert.registers_written then
        Error "written-register sets differ on replay"
      else if List.length written < cert.n - 1 then
        Error
          (Printf.sprintf "only %d registers written, expected >= %d"
             (List.length written) (cert.n - 1))
      else Ok ()

let pp_stop ppf = function
  | Out_of_budget b -> Budget.pp_breach ppf b
  | Wall msg -> Fmt.pf ppf "horizon exhausted: %s" msg

let pp_progress ppf p =
  Fmt.pf ppf "horizon %d, %d valency searches over %d nodes" p.horizon p.searches
    p.nodes_expanded

let pp_certificate ppf c =
  Fmt.pf ppf
    "@[<v>protocol %s, n=%d: %d distinct registers written (bound: n-1 = %d)@,\
     inputs: [%a]@,covered at nice configuration: {%a}; forced fresh write: R%d@,\
     witness schedule length: %d steps; valency searches: %d@]"
    c.protocol_name c.n
    (List.length c.registers_written)
    (c.n - 1)
    Fmt.(array ~sep:(any ";") Value.pp) c.inputs
    Fmt.(list ~sep:comma (fmt "R%d")) c.covered_registers
    c.fresh_register (List.length c.schedule) c.oracle_searches
