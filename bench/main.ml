(* Benchmark harness: prints every experiment table (E1-E14), then runs one
   bechamel timing per table so the engine's throughput is tracked too.

   --tables-only   skip the bechamel timings (CI smoke mode)
   --bench-only    skip the tables, only time the engine
   --deep          larger n for the tables

   The performance record across changes is the benchmark ledger
   (sh ledger/run.sh), not this harness's printed timings. *)
open Bechamel
open Toolkit
open Ts_model
open Ts_core
open Ts_protocols

let stage = Staged.stage

(* One representative timed workload per experiment table.  The tables
   themselves (Tables.all) are the scientific artifact; these measure how
   fast the machinery that produces them runs. *)
let bechamel_tests () =
  [
    Test.make ~name:"e1-theorem1-racing2" (stage (fun () ->
        let t = Valency.create (Racing.make ~n:2) ~horizon:40 in
        ignore (Theorem.theorem1 t)));
    Test.make ~name:"e2-solo-run-racing16" (stage (fun () ->
        let proto = Racing.make ~n:16 in
        let inputs = Array.init 16 (fun p -> Value.int (p mod 2)) in
        ignore (Sim.run proto ~inputs ~policy:(Sim.Solo 0) ~flips:(fun () -> true)
                  ~budget:1_000_000)));
    Test.make ~name:"e3-bound-curves" (stage (fun () ->
        for n = 2 to 256 do
          ignore (Bounds.zhu_space n + Bounds.fhs_space n)
        done));
    Test.make ~name:"e4-valency-classify-racing2" (stage (fun () ->
        let proto = Racing.make ~n:2 in
        let t = Valency.create proto ~horizon:30 in
        let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1 |] in
        ignore (Valency.classify t i0 (Pset.all 2))));
    Test.make ~name:"e5-lemma1-racing3" (stage (fun () ->
        let proto = Racing.make ~n:3 in
        let t = Valency.create proto ~horizon:60 in
        let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
        ignore (Lemmas.lemma1 t i0 (Pset.all 3))));
    Test.make ~name:"e6-lemma4-racing3" (stage (fun () ->
        let proto = Racing.make ~n:3 in
        let t = Valency.create proto ~horizon:60 in
        let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
        ignore (Theorem.lemma4 t i0 (Pset.all 3))));
    Test.make ~name:"e7-jtt-counter8" (stage (fun () ->
        ignore (Ts_perturb.Adversary.run_counter ~n:8)));
    Test.make ~name:"e8-serial-tournament32" (stage (fun () ->
        ignore (Ts_mutex.Arena.serial (Ts_mutex.Tournament.make ~n:32)
                  ~order:(Array.init 32 Fun.id))));
    Test.make ~name:"e9-codec-roundtrip16" (stage (fun () ->
        let alg = Ts_mutex.Tournament.make ~n:16 in
        let o = Ts_mutex.Arena.serial alg ~order:(Array.init 16 Fun.id) in
        match Ts_encoder.Codec.round_trip alg o with
        | Ok _ -> ()
        | Error e -> failwith e));
    Test.make ~name:"e10-solo-election16" (stage (fun () ->
        let s = Ts_objects.Runner.create (Ts_leader.Election.make ~n:16) in
        ignore (Ts_objects.Runner.op s 0 Ts_leader.Election.Elect)));
    Test.make ~name:"e11-randomized-racing4" (stage (fun () ->
        let rng = Rng.create 7 in
        let proto = Racing.make_randomized ~n:4 in
        let inputs = Array.init 4 (fun _ -> Value.int (Rng.int rng 2)) in
        ignore (Sim.run proto ~inputs ~policy:(Sim.Random rng)
                  ~flips:(fun () -> Rng.bool rng) ~budget:2_000_000)));
    Test.make ~name:"e12-domains-racing2" (stage (fun () ->
        ignore (Ts_runtime.Atomic_run.run (Racing.make ~n:2) ~trials:1 ~seed:3
                  ~step_budget:500_000 ~mixed_inputs:true)));
    Test.make ~name:"e13-tas-serial32" (stage (fun () ->
        ignore (Ts_mutex.Arena.serial (Ts_mutex.Tas_lock.make ~n:32)
                  ~order:(Array.init 32 Fun.id))));
    Test.make ~name:"e14-explore-broken" (stage (fun () ->
        ignore (Ts_checker.Explore.check_consensus (Broken.last_write_wins ~n:2)
                  ~inputs_list:(Ts_checker.Explore.binary_inputs 2) ~max_configs:10_000
                  ~max_depth:30 ~solo_budget:50 ~check_solo:false)));
    (* E24: auditing an answer vs producing it.  The e1 workload above is
       the producer; these two time building the certificate from an
       already-won Theorem-1 run and micro-checking its bytes. *)
    (let proto = Racing.make ~n:2 in
     let t = Valency.create proto ~horizon:40 in
     let thm = Theorem.theorem1 t in
     Test.make ~name:"e24-cert-build-racing2" (stage (fun () ->
         ignore (Ts_cert.Cert.of_theorem proto thm))));
    (let proto = Racing.make ~n:2 in
     let t = Valency.create proto ~horizon:40 in
     let bytes = Ts_cert.Cert.to_string (Ts_cert.Cert.of_theorem proto (Theorem.theorem1 t)) in
     Test.make ~name:"e24-microcheck-racing2" (stage (fun () ->
         match Ts_microcheck.Microcheck.check_string bytes with
         | Ok () -> ()
         | Error e -> failwith e)));
    (* E26: the second engine's construction, and the full two-engine
       agreement check the crosscheck gate runs per protocol. *)
    Test.make ~name:"e26-revisionist-racing2" (stage (fun () ->
        let module R = Ts_revisionist.Revisionist in
        match R.construct (Racing.make ~n:2) with
        | R.Complete _ -> ()
        | R.Partial _ -> failwith "revisionist stopped on racing n=2"));
    Test.make ~name:"e26-two-engine-racing2" (stage (fun () ->
        let module R = Ts_revisionist.Revisionist in
        let proto = Racing.make ~n:2 in
        let t = Valency.create proto ~horizon:40 in
        let lem = Theorem.theorem1 t in
        match R.construct proto with
        | R.Complete rev ->
          (match Ts_core.Outcome.agree (Ts_core.Outcome.of_theorem lem) (R.summary rev) with
           | Ok _ -> ()
           | Error m -> failwith m)
        | R.Partial _ -> failwith "revisionist stopped on racing n=2"));
  ]

(* Search-engine observability: run the e14 and e5/e6 workloads once more
   outside the timer, with the metrics registry armed, and print the
   counters the engine kept. *)
let engine_stats () =
  Format.printf "@.%s@.Search-engine metrics (one untimed run of the core workloads)@.%s@."
    (String.make 78 '-') (String.make 78 '-');
  Ts_obs.Obs.Metrics.start ();
  let module E = Ts_checker.Explore in
  let r =
    E.check_consensus (Broken.last_write_wins ~n:2)
      ~inputs_list:(E.binary_inputs 2) ~max_configs:10_000 ~max_depth:30
      ~solo_budget:50 ~check_solo:false
  in
  Format.printf "  explore broken-2:  %a@." E.pp_stats r.E.stats;
  let proto = Racing.make ~n:3 in
  let t = Valency.create proto ~horizon:60 in
  let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
  ignore (Theorem.lemma4 t i0 (Pset.all 3));
  Format.printf "  lemma4 racing-3:   %a@." Valency.pp_stats (Valency.stats t);
  Format.printf "%a@." Ts_obs.Obs.Metrics.pp_snapshot (Ts_obs.Obs.Metrics.stop ())

let run_bechamel () =
  Format.printf "@.%s@.Bechamel timings (one per table; OLS ns/run over a short quota)@.%s@."
    (String.make 78 '-') (String.make 78 '-');
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let tests = Test.make_grouped ~name:"tightspace" ~fmt:"%s %s" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> Format.printf "no clock results?@."
  | Some tbl ->
    let estimates =
      Hashtbl.fold
        (fun name ols acc ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> (name, est) :: acc
          | Some _ | None -> acc)
        tbl []
      |> List.sort compare
    in
    List.iter (fun (name, est) -> Format.printf "  %-42s %12.0f ns/run@." name est) estimates

let () =
  let args = Array.to_list Sys.argv in
  let tables_only = List.mem "--tables-only" args in
  let bench_only = List.mem "--bench-only" args in
  let max_n = if List.mem "--deep" args then 4 else 3 in
  Format.printf "tightspace benchmark harness — reproduction of Zhu, 'A Tight Space Bound@.";
  Format.printf "for Consensus' (PODC'16 BA / STOC'16), plus the JTT and Fan-Lynch bounds.@.";
  if not bench_only then Tables.all ~max_n ();
  if not tables_only then begin
    engine_stats ();
    run_bechamel ()
  end;
  Format.printf "@.done.@."
