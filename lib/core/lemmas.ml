open Ts_model
module Obs = Ts_obs.Obs

type lemma1_result = {
  phi : Execution.event list;
  z : int;
}

let fail fmt = Format.kasprintf (fun s -> raise (Valency.Horizon_exceeded s)) fmt

let apply_schedule t cfg sched =
  Execution.apply (Valency.protocol t) cfg sched

(* The value [1 - v] for binary decisions. *)
let negate v = Value.int (1 - Value.to_int v)

let lemma1 t c p =
  if Pset.cardinal p < 3 then invalid_arg "Lemmas.lemma1: |P| must be >= 3";
  Engine_log.Log.debug (fun m -> m "lemma1: P=%a" Pset.pp p);
  Obs.with_span ~cat:"lemma" "lemma1" @@ fun sp ->
  Obs.set_int sp "participants" (Pset.cardinal p);
  (* A candidate z works at configuration [cfg] if P - {z} is bivalent. *)
  let find_z cfg =
    List.find_opt (fun z -> Valency.is_bivalent t cfg (Pset.remove z p)) (Pset.to_list p)
  in
  match find_z c with
  | Some z -> { phi = []; z }
  | None ->
    (* All P - {z} are univalent from C.  As in the proof, walk a witness
       execution deciding the value opposite to the common univalency and
       stop at the first prefix after which some P - {z} turns bivalent. *)
    let v =
      let z0 = Pset.choose p in
      match Valency.univalent_value t c (Pset.remove z0 p) with
      | Some v -> v
      | None -> fail "lemma1: P-{z} neither bivalent nor univalent (horizon?)"
    in
    let psi =
      match Valency.can_decide t c p (negate v) with
      | Some w -> w
      | None -> fail "lemma1: P not bivalent from C (premise violated or horizon)"
    in
    let rec walk cfg prefix_rev = function
      | [] -> fail "lemma1: walked the whole witness without finding z"
      | e :: rest ->
        Budget.check (Valency.budget t);
        let cfg', _ = apply_schedule t cfg [ e ] in
        let prefix_rev = e :: prefix_rev in
        (match find_z cfg' with
         | Some z -> { phi = List.rev prefix_rev; z }
         | None -> walk cfg' prefix_rev rest)
    in
    walk c [] psi

let solo_deciding t c z =
  Obs.with_span ~cat:"lemma" "solo_deciding" @@ fun sp ->
  Obs.set_int sp "pid" z;
  let zs = Pset.singleton z in
  match Valency.can_decide t c zs Valency.zero with
  | Some w -> w
  | None ->
    (match Valency.can_decide t c zs Valency.one with
     | Some w -> w
     | None -> fail "solo_deciding: p%d has no deciding solo execution in horizon" z)

let split_at_uncovered_write t c _z ~covered ~zeta =
  (* the executable Lemma 2: walk the solo execution to its first write
     outside the covered set *)
  Obs.with_span ~cat:"lemma" "lemma2" @@ fun sp ->
  Obs.set_int sp "covered" (List.length covered);
  Obs.set_int sp "zeta_len" (List.length zeta);
  let proto = Valency.protocol t in
  let in_covered r = List.mem r covered in
  let rec go cfg applied_rev = function
    | [] ->
      fail "split_at_uncovered_write: solo execution decides without leaving %a"
        Fmt.(Dump.list int) covered
    | e :: rest ->
      let uncovered_write =
        match Config.poised proto cfg e.Execution.pid with
        | Some a ->
          (match Action.written_register a with
           | Some r when not (in_covered r) -> Some r
           | Some _ | None -> None)
        | None -> None
      in
      (match uncovered_write with
       | Some r -> List.rev applied_rev, cfg, r
       | None ->
         let cfg', _ = apply_schedule t cfg [ e ] in
         go cfg' (e :: applied_rev) rest)
  in
  go c [] zeta

let lemma2_holds t c ~r ~z =
  let proto = Valency.protocol t in
  let covered = Covering.covered_set proto c r in
  let zeta = solo_deciding t c z in
  match split_at_uncovered_write t c z ~covered ~zeta with
  | _ -> true
  | exception Valency.Horizon_exceeded _ -> false

type lemma3_result = {
  phi3 : Execution.event list;
  q : int;
  v_r : Value.t;
}

let lemma3 t c ~p ~r =
  Engine_log.Log.debug (fun m -> m "lemma3: P=%a R=%a" Pset.pp p Pset.pp r);
  let proto = Valency.protocol t in
  if Pset.is_empty r then invalid_arg "Lemmas.lemma3: R must be non-empty";
  Obs.with_span ~cat:"lemma" "lemma3" @@ fun sp ->
  Obs.set_int sp "covering" (Pset.cardinal r);
  if not (Pset.subset r p) then invalid_arg "Lemmas.lemma3: R must be a subset of P";
  if not (Covering.is_covering proto c r) then
    invalid_arg "Lemmas.lemma3: R is not a covering set";
  let q_set = Pset.diff p r in
  let beta = Covering.block_write r in
  let with_beta cfg = fst (apply_schedule t cfg beta) in
  (* v = a value R can decide from C·β (Proposition 1(i)). *)
  let v =
    let c_beta = with_beta c in
    if Valency.decides t c_beta r Valency.zero then Valency.zero
    else if Valency.decides t c_beta r Valency.one then Valency.one
    else fail "lemma3: R can decide nothing from C·β within horizon"
  in
  (* ψ = Q-only execution from C deciding v̄ (Q is bivalent from C). *)
  let psi =
    match Valency.can_decide t c q_set (negate v) with
    | Some w -> w
    | None -> fail "lemma3: Q = P-R not bivalent from C (premise or horizon)"
  in
  (* φ = longest prefix of ψ such that R can decide v from C·φ·β; the next
     step is by the q we return. *)
  let r_can_decide_v cfg = Valency.decides t (with_beta cfg) r v in
  if not (r_can_decide_v c) then
    fail "lemma3: R cannot decide %a from C·β (oracle inconsistency)" Value.pp v;
  let rec walk cfg phi_rev = function
    | [] -> fail "lemma3: walked the whole witness, R still decides v after β"
    | e :: rest ->
      Budget.check (Valency.budget t);
      let cfg', _ = apply_schedule t cfg [ e ] in
      if r_can_decide_v cfg' then walk cfg' (e :: phi_rev) rest
      else begin
        (* Verify the lemma's conclusion before returning. *)
        let phi3 = List.rev phi_rev in
        let q = e.Execution.pid in
        let cfg_phi_beta = with_beta cfg in
        if not (Valency.is_bivalent t cfg_phi_beta (Pset.add q r)) then
          fail "lemma3: R ∪ {q} not verifiably bivalent from C·φ·β (horizon)";
        { phi3; q; v_r = v }
      end
  in
  walk c [] psi
