(* Crash storm: consensus under crash-stop faults.

   Three demonstrations of the fault-injection layer:

   1. racing consensus survives any single targeted crash — even a
      worst-case Before_write crash that swallows a pending covering
      write — because obstruction-free protocols owe nothing to the
      crashed process;
   2. a seeded random crash storm, replayed exactly from the recorded
      RNG state and fault seed;
   3. the classic non-resilient counterexample: a wait-for-all protocol
      where one crash before the announcing write strands everyone else,
      and the model checker's t-resilience search finds and replays the
      stuck witness.

     dune exec examples/crash_storm.exe
*)
open Ts_model
open Ts_protocols

let n = 3
let inputs = [| Value.int 1; Value.int 0; Value.int 1 |]

let () =
  let proto = Racing.make ~n in
  Format.printf "== 1. targeted crashes against %s ==@." proto.Protocol.name;
  List.iter
    (fun (label, plan) ->
      let rng = Rng.create 2026 in
      let o =
        Sim.run proto ~faults:plan ~inputs ~policy:(Sim.Random rng)
          ~flips:(fun () -> Rng.bool rng)
          ~budget:100_000
      in
      Format.printf "  %-28s crashed {%a}; survivors decided: %a@." label
        Fmt.(list ~sep:comma (fmt "p%d")) o.Sim.crashed
        Fmt.(list ~sep:comma (pair ~sep:(any "->") (fmt "p%d") Value.pp))
        o.Sim.decisions;
      match Sim.agreement o with
      | Ok v ->
        assert (Sim.valid ~inputs v);
        Format.printf "  %-28s agreement on %a@." "" Value.pp v
      | Error vs -> Format.printf "  DISAGREEMENT: %a@." Fmt.(Dump.list Value.pp) vs)
    [
      "crash p0 after 5 steps:", Fault.crash_after 0 5;
      "crash p2 before a write:", Fault.crash_before_write 2;
      "crash p0 and p1:", Fault.union (Fault.crash_after 0 3) (Fault.crash_before_write 1);
    ];

  Format.printf "@.== 2. seeded random crash storm ==@.";
  let plan = Fault.random ~seed:42 ~n ~t:(n - 1) ~max_delay:10 in
  Format.printf "  plan: %a@." Fault.pp plan;
  let rng = Rng.create 7 in
  let o =
    Sim.run proto ~faults:plan ~inputs ~policy:(Sim.Random rng)
      ~flips:(fun () -> Rng.bool rng)
      ~budget:100_000
  in
  Format.printf "  crashed {%a}, %d steps, decisions %a@."
    Fmt.(list ~sep:comma (fmt "p%d")) o.Sim.crashed o.Sim.steps
    Fmt.(list ~sep:comma (pair ~sep:(any "->") (fmt "p%d") Value.pp)) o.Sim.decisions;
  (* the outcome records the generator state: replay the identical run *)
  (match o.Sim.rng_state with
   | None -> assert false
   | Some s ->
     let rng' = Rng.of_state s in
     let o' =
       Sim.run proto ~faults:plan ~inputs ~policy:(Sim.Random rng')
         ~flips:(fun () -> Rng.bool rng')
         ~budget:100_000
     in
     Format.printf "  replay from recorded rng state: %s@."
       (if o'.Sim.steps = o.Sim.steps && o'.Sim.decisions = o.Sim.decisions
           && o'.Sim.crashed = o.Sim.crashed
        then "identical run reproduced"
        else "MISMATCH"));

  Format.printf "@.== 3. a protocol that is not 1-resilient ==@.";
  let waiting = Broken.wait_for_all ~n in
  Format.printf "  %s: %s@." waiting.Protocol.name waiting.Protocol.description;
  (* fault-free, the full group terminates... *)
  let o =
    Sim.run waiting ~inputs ~policy:Sim.Round_robin ~flips:(fun () -> true)
      ~budget:10_000
  in
  Format.printf "  fault-free round-robin: %d/%d decided in %d steps@."
    (List.length o.Sim.decisions) n o.Sim.steps;
  (* ...but one crash before the announcing write stalls the rest *)
  let o =
    Sim.run waiting ~faults:(Fault.crash_before_write 0) ~inputs
      ~policy:Sim.Round_robin ~flips:(fun () -> true) ~budget:10_000
  in
  Format.printf "  crash p0 before its write: %d decided, budget exhausted: %b@."
    (List.length o.Sim.decisions) o.Sim.ran_out;
  (* the checker finds the same flaw as a replayable witness *)
  let solo_budget = 200 in
  let r =
    Ts_checker.Explore.check_t_resilient waiting ~t:1
      ~inputs_list:(Ts_checker.Explore.binary_inputs n) ~max_configs:5_000
      ~max_depth:20 ~solo_budget
  in
  match r.Ts_checker.Explore.verdict with
  | Ok () -> Format.printf "  checker: unexpectedly clean?!@."
  | Error v ->
    Format.printf "  checker: %a@." Ts_checker.Explore.pp_violation v;
    (match Ts_checker.Explore.replay ~solo_budget waiting v with
     | Ok () -> Format.printf "  witness independently replayed: confirmed.@."
     | Error e -> Format.printf "  replay failed: %s@." e)
