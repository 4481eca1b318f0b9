(* Cross-cutting qcheck properties tying the subsystems together. *)
open Ts_model
open Ts_protocols

(* Run a racing instance under a seeded random schedule and return the
   per-step register states of the counter slots. *)
let racing_slot_histories ~n ~seed ~steps =
  let proto = Racing.make ~n in
  let rng = Rng.create seed in
  let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
  let cfg = ref (Config.initial proto ~inputs) in
  let hist = ref [] in
  (try
     for _ = 1 to steps do
       let alive =
         List.filter (fun p -> Config.has_decided !cfg p = None) (List.init n Fun.id)
       in
       if alive = [] then raise Exit;
       let p = List.nth alive (Rng.int rng (List.length alive)) in
       let coin =
         match Config.poised proto !cfg p with
         | Some Action.Flip -> Some (Rng.bool rng)
         | _ -> None
       in
       let cfg', _ = Config.step proto !cfg p ~coin in
       cfg := cfg';
       hist :=
         Array.init (2 * n) (fun r ->
             match Config.register !cfg r with Value.Bot -> 0 | v -> Value.to_int v)
         :: !hist
     done
   with Exit -> ());
  List.rev !hist

let prop_racing_slots_monotone =
  QCheck.Test.make ~name:"racing: counter slots are monotone" ~count:40
    QCheck.(pair (int_range 2 4) small_int)
    (fun (n, seed) ->
      let hist = racing_slot_histories ~n ~seed ~steps:300 in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          Array.for_all2 (fun x y -> x <= y) a b && ok rest
        | _ -> true
      in
      ok hist)

let prop_agreement_validity_random_runs =
  QCheck.Test.make ~name:"racing: agreement+validity under random schedules" ~count:40
    QCheck.(pair (int_range 2 5) small_int)
    (fun (n, seed) ->
      let proto = Racing.make ~n in
      let rng = Rng.create (seed + 1) in
      let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
      let o =
        Sim.run proto ~inputs ~policy:(Sim.Random rng) ~flips:(fun () -> Rng.bool rng)
          ~budget:500_000
      in
      (not o.Sim.ran_out)
      &&
      match Sim.agreement o with
      | Ok v -> Sim.valid ~inputs v
      | Error _ -> false)

let prop_kset_bound =
  QCheck.Test.make ~name:"kset: at most k distinct decisions" ~count:40
    QCheck.(triple (int_range 2 6) (int_range 1 6) small_int)
    (fun (n, k, seed) ->
      QCheck.assume (k <= n);
      let proto = Kset.make ~n ~k in
      let rng = Rng.create (seed + 3) in
      let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
      let o =
        Sim.run proto ~inputs ~policy:(Sim.Random rng) ~flips:(fun () -> true)
          ~budget:500_000
      in
      let decided = List.sort_uniq Value.compare (List.map snd o.Sim.decisions) in
      List.length decided <= k && List.for_all (Sim.valid ~inputs) decided)

let prop_multivalued_agreement =
  QCheck.Test.make ~name:"multivalued: random runs agree on an input" ~count:25
    QCheck.(triple (int_range 2 4) (int_range 1 4) small_int)
    (fun (n, bits, seed) ->
      let proto = Multivalued.make ~n ~bits in
      let rng = Rng.create (seed + 7) in
      let inputs = Array.init n (fun _ -> Value.int (Rng.int rng (1 lsl bits))) in
      let o =
        Sim.run proto ~inputs ~policy:(Sim.Random rng) ~flips:(fun () -> true)
          ~budget:1_000_000
      in
      match Sim.agreement o with
      | Ok v -> Sim.valid ~inputs v
      | Error _ -> false)

let prop_codec_roundtrip_random_orders =
  QCheck.Test.make ~name:"codec: round trip over random serial orders" ~count:30
    QCheck.(pair (int_range 2 10) small_int)
    (fun (n, seed) ->
      let alg = Ts_lecture.Tournament.make ~n in
      let order = Rng.permutation (Rng.create (seed + 11)) n in
      let o = Ts_lecture.Arena.serial alg ~order in
      match Ts_lecture.Codec.round_trip alg o with Ok _ -> true | Error _ -> false)

let prop_mutex_cost_decomposition =
  QCheck.Test.make ~name:"mutex: total cost = sum of per-process costs <= accesses" ~count:30
    QCheck.(pair (int_range 1 12) small_int)
    (fun (n, seed) ->
      let order = Rng.permutation (Rng.create (seed + 13)) n in
      let o = Ts_lecture.Arena.serial (Ts_lecture.Peterson.make ~n) ~order in
      Array.fold_left ( + ) 0 o.Ts_lecture.Arena.per_process_cost = o.Ts_lecture.Arena.cost
      && o.Ts_lecture.Arena.cost <= o.Ts_lecture.Arena.accesses)

let prop_valency_superset_monotone =
  QCheck.Test.make ~name:"valency: can_decide is monotone in P" ~count:20
    QCheck.(pair small_int (int_range 0 8))
    (fun (seed, prefix_len) ->
      let proto = Racing.make ~n:2 in
      let t = Ts_core.Valency.create proto ~horizon:30 in
      let rng = Rng.create (seed + 17) in
      let inputs = [| Value.int 0; Value.int 1 |] in
      let cfg = ref (Config.initial proto ~inputs) in
      (* walk a random prefix *)
      (try
         for _ = 1 to prefix_len do
           let alive =
             List.filter (fun p -> Config.has_decided !cfg p = None) [ 0; 1 ]
           in
           if alive = [] then raise Exit;
           let p = List.nth alive (Rng.int rng (List.length alive)) in
           cfg := fst (Config.step proto !cfg p ~coin:None)
         done
       with Exit -> ());
      List.for_all
        (fun v ->
          List.for_all
            (fun p ->
              match Ts_core.Valency.can_decide t !cfg (Pset.singleton p) v with
              | Some _ -> Ts_core.Valency.can_decide t !cfg (Pset.all 2) v <> None
              | None -> true)
            [ 0; 1 ])
        [ Ts_core.Valency.zero; Ts_core.Valency.one ])

let prop_theorem_writes_subset_accessed =
  QCheck.Test.make ~name:"theorem: written registers are accessed registers" ~count:5
    QCheck.unit
    (fun () ->
      let t = Ts_core.Valency.create (Racing.make ~n:2) ~horizon:40 in
      let cert = Ts_core.Theorem.theorem1 t in
      let accessed = Execution.accessed_registers cert.Ts_core.Theorem.trace in
      List.for_all (fun r -> List.mem r accessed) cert.Ts_core.Theorem.registers_written)

let prop_diagram_cell_conservation =
  QCheck.Test.make ~name:"diagram: one non-idle cell per step" ~count:30
    QCheck.(pair (int_range 2 4) (int_range 1 60))
    (fun (n, steps) ->
      let proto = Racing.make ~n in
      let inputs = Array.init n (fun p -> Value.int (p mod 2)) in
      let o =
        Sim.run proto ~inputs ~policy:Sim.Round_robin ~flips:(fun () -> true)
          ~budget:steps
      in
      let rendered = Diagram.render ~n o.Sim.trace in
      (* count cells that denote actions: r, w, x, f, D starts *)
      let actions = ref 0 in
      String.iteri
        (fun i c ->
          if (c = 'r' || c = 'w' || c = 'x' || c = 'f' || c = 'D')
             && (i = 0 || rendered.[i - 1] = ' ')
          then incr actions)
        rendered;
      !actions = List.length o.Sim.trace)

let prop_snapshot_random_linearizable =
  QCheck.Test.make ~name:"snapshot: random mixed histories linearizable" ~count:15
    QCheck.(pair (int_range 2 3) small_int)
    (fun (n, seed) ->
      let open Ts_lecture in
      let impl = Snapshot.make ~n in
      let rng = Rng.create (seed + 23) in
      let s = Runner.create impl in
      let remaining = Array.make n 2 in
      let total () = Array.fold_left ( + ) 0 remaining in
      while total () > 0 || Array.exists Fun.id (Array.init n (Runner.busy s)) do
        let p = Rng.int rng n in
        if Runner.busy s p then ignore (Runner.step s p)
        else if remaining.(p) > 0 then begin
          remaining.(p) <- remaining.(p) - 1;
          let op =
            if Rng.bool rng then Snapshot.Update (Value.int (Rng.int rng 100))
            else Snapshot.Scan
          in
          Runner.invoke s p op
        end
      done;
      Linearize.check (Linearize.snapshot_spec ~n) (Runner.history s) <> None)

let suite =
  ( "properties",
    [
      QCheck_alcotest.to_alcotest prop_racing_slots_monotone;
      QCheck_alcotest.to_alcotest prop_agreement_validity_random_runs;
      QCheck_alcotest.to_alcotest prop_kset_bound;
      QCheck_alcotest.to_alcotest prop_multivalued_agreement;
      QCheck_alcotest.to_alcotest prop_codec_roundtrip_random_orders;
      QCheck_alcotest.to_alcotest prop_mutex_cost_decomposition;
      QCheck_alcotest.to_alcotest prop_valency_superset_monotone;
      QCheck_alcotest.to_alcotest prop_theorem_writes_subset_accessed;
      QCheck_alcotest.to_alcotest prop_diagram_cell_conservation;
      QCheck_alcotest.to_alcotest prop_snapshot_random_linearizable;
    ] )
