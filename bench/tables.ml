(* The experiment tables of EXPERIMENTS.md: one function per experiment id,
   each printing the measured quantities next to the proved bound curves. *)
open Ts_model
open Ts_core
open Ts_protocols

let line = String.make 78 '-'

let header id title =
  Format.printf "@.%s@.%s — %s@.%s@." line id title line

(* E1: Theorem 1 witnesses — the paper's main result, machine-checked.
   The bound covers randomized protocols too: same construction, coins
   resolved adversarially. *)
let e1 ?(max_n = 4) () =
  header "E1" "Zhu Theorem 1: adversary-constructed executions writing >= n-1 registers";
  Format.printf "%-14s %4s %18s %10s %14s %10s %10s@." "protocol" "n" "registers-written"
    "bound n-1" "schedule-len" "searches" "nodes";
  List.iter
    (fun make ->
      List.iter
        (fun n ->
          let proto = make ~n in
          let horizon = 30 * n in
          let t = Valency.create proto ~horizon in
          match Theorem.theorem1 t with
          | cert ->
            let ok =
              match Theorem.verify cert proto with Ok () -> "" | Error e -> " REPLAY-FAIL: " ^ e
            in
            Format.printf "%-14s %4d %18d %10d %14d %10d %10d%s@." proto.Protocol.name n
              (List.length cert.Theorem.registers_written)
              (Bounds.zhu_space n)
              (List.length cert.Theorem.schedule)
              cert.Theorem.effort.Theorem.oracle_searches (Valency.stats t).Valency.nodes_expanded ok
          | exception Valency.Horizon_exceeded msg ->
            Format.printf "%-14s %4d   horizon %d too small (%s)@." proto.Protocol.name n
              horizon msg)
        (List.init (max_n - 1) (fun i -> i + 2)))
    [ Racing.make; Racing.make_randomized ]

(* E2: upper bounds — registers touched by real protocols. *)
let e2 () =
  header "E2" "Upper bounds: registers allocated/written by consensus protocols";
  Format.printf "%-16s %4s %10s %12s %12s %10s@." "protocol" "n" "allocated" "solo-written"
    "rr-written" "bound n-1";
  List.iter
    (fun n ->
      List.iter
        (fun proto ->
          let inputs = Array.init n (fun p -> Value.int (p mod 2)) in
          let solo =
            Sim.run proto ~inputs ~policy:(Sim.Solo 0) ~flips:(fun () -> true)
              ~budget:2_000_000
          in
          let rr =
            Sim.run proto ~inputs ~policy:Sim.Round_robin ~flips:(fun () -> true)
              ~budget:2_000_000
          in
          Format.printf "%-16s %4d %10d %12d %12d %10d@." proto.Protocol.name n
            proto.Protocol.num_registers
            (List.length (Execution.written_registers solo.Sim.trace))
            (List.length (Execution.written_registers rr.Sim.trace))
            (Bounds.zhu_space n))
        [ Racing.make ~n ])
    [ 2; 4; 8; 16; 32; 64 ]

(* E3: the gap the paper closed. *)
let e3 () =
  header "E3" "The FHS sqrt(n) -> Zhu n-1 gap (bound curves vs implemented protocol)";
  Format.printf "%4s %14s %12s %14s@." "n" "FHS-sqrt(n)" "Zhu n-1" "racing (2n)";
  List.iter
    (fun n ->
      Format.printf "%4d %14d %12d %14d@." n (Bounds.fhs_space n) (Bounds.zhu_space n)
        (2 * n))
    [ 2; 4; 8; 16; 32; 64; 128; 256 ]

(* E4: Proposition 2 and Lemma 1 (Figure 2). *)
let e4 () =
  header "E4" "Prop. 2 initial valencies and Lemma 1 witnesses (Figure 2)";
  let n = 3 in
  let proto = Racing.make ~n in
  let t = Valency.create proto ~horizon:70 in
  let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
  Format.printf "initial configuration I, inputs [0;1;0]:@.";
  List.iter
    (fun ps ->
      let verdict =
        match Valency.classify t i0 ps with
        | Valency.Bivalent (w0, w1) ->
          Printf.sprintf "bivalent (witnesses: %d and %d steps)" (List.length w0)
            (List.length w1)
        | Valency.Univalent (v, w) ->
          Printf.sprintf "%s-univalent (witness: %d steps)" (Value.to_string v)
            (List.length w)
        | Valency.Blocked -> "blocked"
      in
      Format.printf "  %-14s %s@." (Format.asprintf "%a" Pset.pp ps) verdict)
    [ Pset.singleton 0; Pset.singleton 1; Pset.of_list [ 0; 1 ]; Pset.all 3 ];
  let { Lemmas.phi; z } = Lemmas.lemma1 t i0 (Pset.all 3) in
  Format.printf "Lemma 1 on P={p0,p1,p2}: phi has %d steps, z = p%d, P-{z} bivalent at C·phi@."
    (List.length phi) z;
  (* the valency-annotated configuration graph of racing-2 (Figure-2 style) *)
  let proto2 = Racing.make ~n:2 in
  let t2 = Valency.create proto2 ~horizon:40 in
  let _, g =
    Valgraph.dot t2 ~inputs:[| Value.int 0; Value.int 1 |] ~pset:(Pset.all 2)
      ~depth:12 ~max_nodes:4_000
  in
  Format.printf
    "valency atlas of racing-2 to depth 12: %d configurations (%d bivalent, %d 0-univalent, %d 1-univalent)@."
    g.Valgraph.nodes g.Valgraph.bivalent g.Valgraph.univalent0 g.Valgraph.univalent1

(* E5: Lemma 3 (Figure 3). *)
let e5 () =
  header "E5" "Lemma 3 (Figure 3): block write absorbed while staying bivalent";
  let n = 3 in
  let proto = Racing.make ~n in
  let t = Valency.create proto ~horizon:70 in
  let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
  let nice = Theorem.lemma4 t i0 (Pset.all 3) in
  let l3 = Lemmas.lemma3 t nice.Theorem.cfg ~p:(Pset.all 3) ~r:nice.Theorem.cover in
  Format.printf
    "from the nice configuration: cover R = %a over registers {%a}@.\
     Lemma 3 gives phi (%d steps), q = p%d, R can decide %a after the block write;@.\
     R ∪ {q} re-verified bivalent from C·phi·beta@."
    Pset.pp nice.Theorem.cover
    Fmt.(list ~sep:comma (fmt "R%d"))
    (Covering.covered_set proto nice.Theorem.cfg nice.Theorem.cover)
    (List.length l3.Lemmas.phi3) l3.Lemmas.q Value.pp l3.Lemmas.v_r

(* E6: Lemma 4 (Figure 4). *)
let e6 () =
  header "E6" "Lemma 4 (Figure 4): the pigeonhole construction with hidden insertion";
  let n = 3 in
  let proto = Racing.make ~n in
  let t = Valency.create proto ~horizon:70 in
  let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
  let nice = Theorem.lemma4 t i0 (Pset.all 3) in
  Format.printf
    "lemma4(I, {p0,p1,p2}) = alpha with %d steps@.\
     final pair %a bivalent; covering set %a well spread over {%a}@.\
     (the hidden z-insertion was verified structurally: register contents and@.\
      P-{z} states match the uninstrumented run)@."
    (List.length nice.Theorem.alpha) Pset.pp nice.Theorem.q_pair Pset.pp nice.Theorem.cover
    Fmt.(list ~sep:comma (fmt "R%d"))
    (Covering.covered_set proto nice.Theorem.cfg nice.Theorem.cover)

(* E7: the JTT perturbable-object bound. *)
let e7 () =
  header "E7" "Jayanti–Tan–Toueg: covering adversary on perturbable objects";
  Format.printf "%-18s %4s %10s %10s %14s %12s %10s@." "object" "n" "covered" "bound n-1"
    "probe-regs" "probe-steps" "hiding";
  List.iter
    (fun n ->
      List.iter
        (fun run ->
          let r = run ~n in
          Format.printf "%-18s %4d %10d %10d %14d %12d %10s@."
            r.Ts_lecture.Adversary.object_name n r.Ts_lecture.Adversary.distinct_covered
            r.Ts_lecture.Adversary.jtt_bound r.Ts_lecture.Adversary.probe_accesses
            r.Ts_lecture.Adversary.probe_steps
            (if r.Ts_lecture.Adversary.hidden_invisible && r.Ts_lecture.Adversary.completed_visible
             then "ok"
             else "FAILED"))
        [
          Ts_lecture.Adversary.run_counter;
          Ts_lecture.Adversary.run_maxreg;
          Ts_lecture.Adversary.run_snapshot;
        ])
    [ 2; 4; 8; 16 ]

(* E8: Fan–Lynch mutex cost. *)
let e8 () =
  header "E8" "Fan–Lynch: state-change cost of canonical executions";
  Format.printf "%4s %12s %10s %12s %10s %14s %16s@." "n" "peterson" "bakery" "tournament"
    "tas(swap)" "bound nlog2n" "contended-tree";
  List.iter
    (fun n ->
      let order = Array.init n Fun.id in
      let cost alg = (Ts_lecture.Arena.serial alg ~order).Ts_lecture.Arena.cost in
      let contended = (Ts_lecture.Arena.contended (Ts_lecture.Tournament.make ~n)).Ts_lecture.Arena.cost in
      Format.printf "%4d %12d %10d %12d %10d %14.0f %16d@." n
        (cost (Ts_lecture.Peterson.make ~n))
        (cost (Ts_lecture.Bakery.make ~n))
        (cost (Ts_lecture.Tournament.make ~n))
        (cost (Ts_lecture.Tas_lock.make ~n))
        (Bounds.fan_lynch_cost n) contended)
    [ 2; 4; 8; 16; 32; 64 ]

(* E9: the encoder/decoder. *)
let e9 () =
  header "E9" "Fan–Lynch encoder/decoder: schedule bits vs entropy floor";
  Format.printf "%4s %14s %12s %12s %12s %10s@." "n" "bits(serial)" "log2(n!)"
    "cost(serial)" "bits(cont.)" "roundtrip";
  List.iter
    (fun n ->
      let alg = Ts_lecture.Tournament.make ~n in
      let order = Rng.permutation (Rng.create (n + 1)) n in
      let o = Ts_lecture.Arena.serial alg ~order in
      let oc = Ts_lecture.Arena.contended alg in
      match Ts_lecture.Codec.round_trip alg o, Ts_lecture.Codec.round_trip alg oc with
      | Ok e, Ok ec ->
        Format.printf "%4d %14d %12.1f %12d %12d %10s@." n (snd e.Ts_lecture.Codec.bits)
          (Bounds.log2_factorial n) o.Ts_lecture.Arena.cost (snd ec.Ts_lecture.Codec.bits) "ok"
      | Error e, _ | _, Error e -> Format.printf "%4d round trip FAILED: %s@." n e)
    [ 2; 4; 8; 16; 32; 64 ]

(* E10: leader election vs consensus space. *)
let e10 () =
  header "E10" "Weak leader election vs consensus (the introduction's contrast)";
  Format.printf "%4s %16s %16s %14s %12s %12s@." "n" "election-regs" "solo-touched"
    "GHHW-O(logn)" "consensus" "Zhu n-1";
  List.iter
    (fun n ->
      let impl = Ts_lecture.Election.make ~n in
      let s = Ts_lecture.Runner.create impl in
      ignore (Ts_lecture.Runner.op s 0 Ts_lecture.Election.Elect);
      Format.printf "%4d %16d %16d %14d %12d %12d@." n impl.Ts_lecture.Impl.num_registers
        (List.length (Ts_lecture.Runner.op_accesses s 0))
        (Bounds.leader_election_space n) (2 * n) (Bounds.zhu_space n))
    [ 2; 4; 8; 16; 32; 64 ];
  (* a second sub-consensus task from the same splitters: one-shot renaming *)
  Format.printf "@.Moir-Anderson renaming from the same splitters (weaker than consensus):@.";
  Format.printf "%4s %14s %16s %14s@." "n" "name-space" "regs (2 names)" "distinct-names";
  List.iter
    (fun n ->
      let rng = Rng.create (3 * n) in
      let s = Ts_lecture.Runner.create (Ts_lecture.Renaming.make ~n) in
      for p = 0 to n - 1 do
        Ts_lecture.Runner.invoke s p Ts_lecture.Renaming.Rename
      done;
      let names = ref [] in
      let pending = ref (List.init n Fun.id) in
      while !pending <> [] do
        let p = List.nth !pending (Rng.int rng (List.length !pending)) in
        match Ts_lecture.Runner.step s p with
        | `Returned v ->
          names := Value.to_int v :: !names;
          pending := List.filter (fun q -> q <> p) !pending
        | `Continues -> ()
      done;
      Format.printf "%4d %14d %16d %14d@." n (Ts_lecture.Renaming.name_space n)
        (Ts_lecture.Renaming.make ~n).Ts_lecture.Impl.num_registers
        (List.length (List.sort_uniq compare !names)))
    [ 2; 4; 8; 16 ]

(* E11: randomized consensus total steps. *)
let e11 () =
  header "E11" "Randomized racing consensus: agreement across seeds, steps vs n^2";
  Format.printf "%4s %8s %12s %14s %14s@." "n" "trials" "disagree" "avg-steps" "AC08 n^2";
  List.iter
    (fun n ->
      let proto = Racing.make_randomized ~n in
      let trials = 40 in
      let disagree = ref 0 and steps = ref 0 in
      for seed = 1 to trials do
        let rng = Rng.create (seed * 131) in
        let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
        let o =
          Sim.run proto ~inputs ~policy:(Sim.Random rng)
            ~flips:(fun () -> Rng.bool rng)
            ~budget:3_000_000
        in
        steps := !steps + o.Sim.steps;
        match Sim.agreement o with Ok _ -> () | Error _ -> incr disagree
      done;
      Format.printf "%4d %8d %12d %14d %14d@." n trials !disagree (!steps / trials)
        (Bounds.attiya_censor_steps n))
    [ 2; 4; 8; 16 ];
  (* the weak-shared-coin building block of AH90-style protocols *)
  Format.printf "@.weak shared coin (±1 random walk, threshold 3n): unanimity rate@.";
  List.iter
    (fun n ->
      let trials = 30 in
      let unanimous = ref 0 in
      for seed = 1 to trials do
        let rng = Rng.create (seed * 389) in
        let s = Ts_lecture.Runner.create (Ts_lecture.Shared_coin.make ~n ~k:3) in
        for p = 0 to n - 1 do
          Ts_lecture.Runner.invoke s p (Ts_lecture.Shared_coin.Toss { seed = seed + (p * 101) })
        done;
        let outs = ref [] in
        let pending = ref (List.init n Fun.id) in
        while !pending <> [] do
          let p = List.nth !pending (Rng.int rng (List.length !pending)) in
          match Ts_lecture.Runner.step s p with
          | `Returned v ->
            outs := Value.to_bool v :: !outs;
            pending := List.filter (fun q -> q <> p) !pending
          | `Continues -> ()
        done;
        if List.length (List.sort_uniq compare !outs) = 1 then incr unanimous
      done;
      Format.printf "  n=%2d: %d/%d trials unanimous@." n !unanimous trials)
    [ 2; 3; 4 ]

(* E12: multicore validation.  Step totals and wall time depend on how
   the domains interleave, so only the trial, failure and timeout counts
   are printed. *)
let e12 () =
  header "E12" "Multicore: the same protocol code on OCaml 5 atomics and domains";
  List.iter
    (fun (proto, trials) ->
      let module A = Ts_lecture.Atomic_run in
      let s = A.run proto ~trials ~seed:2026 ~step_budget:1_000_000 ~mixed_inputs:true in
      Format.printf "  %s: %d trials, %d agreement failures, %d validity failures, %d timeouts@."
        s.A.protocol s.A.trials s.A.agreement_failures s.A.validity_failures s.A.timeouts)
    [ Racing.make ~n:2, 60; Racing.make ~n:3, 40; Racing.make ~n:4, 25;
      Racing.make_randomized ~n:3, 25 ]

(* E13: the historyless contrast of the conclusion. *)
let e13 () =
  header "E13" "Historyless primitives (swap): what the conclusion says registers can't do";
  Format.printf "%4s %22s %22s@." "n" "tas(1 swap reg) cost" "tournament(regs) cost";
  List.iter
    (fun n ->
      let order = Array.init n Fun.id in
      Format.printf "%4d %22d %22d@." n
        (Ts_lecture.Arena.serial (Ts_lecture.Tas_lock.make ~n) ~order).Ts_lecture.Arena.cost
        (Ts_lecture.Arena.serial (Ts_lecture.Tournament.make ~n) ~order).Ts_lecture.Arena.cost)
    [ 2; 8; 32; 64 ];
  Format.printf
    "  one swap register replaces Ω(n) read/write registers — the FHS Ω(sqrt n)@.\
  \  bound still applies to historyless objects, Zhu's n-1 proof does not (§4).@."

(* E14: negative controls. *)
let e14 () =
  header "E14" "Negative controls: broken protocols are rejected";
  let explore proto =
    Ts_checker.Explore.check_consensus proto
      ~inputs_list:(Ts_checker.Explore.binary_inputs 2) ~max_configs:20_000 ~max_depth:30
      ~solo_budget:200 ~check_solo:true
  in
  List.iter
    (fun (Protocol.Packed proto) ->
      let r = explore proto in
      Format.printf "  %-16s %s@." proto.Protocol.name
        (match r.Ts_checker.Explore.verdict with
         | Ok () -> "NOT CAUGHT (bug!)"
         | Error v -> Format.asprintf "caught: %a" Ts_checker.Explore.pp_violation v))
    [
      Protocol.Packed (Broken.last_write_wins ~n:2);
      Protocol.Packed (Broken.naive_max ~n:2);
      Protocol.Packed (Broken.oblivious_seven ~n:2);
      Protocol.Packed (Broken.insomniac ~n:2);
    ];
  let r = explore (Racing.make ~n:2) in
  Format.printf "  %-16s %s@." "racing-2 (control)"
    (match r.Ts_checker.Explore.verdict with
     | Ok () ->
       Printf.sprintf "clean (%d configurations explored)"
         r.Ts_checker.Explore.stats.Ts_checker.Explore.configs_explored
     | Error _ -> "FALSE POSITIVE (bug!)")

(* E15: the conclusion's k-set agreement direction. *)
let e15 () =
  header "E15" "k-set agreement (§4): partitioned protocol vs the bound curves";
  Format.printf "%4s %4s %12s %14s %16s %16s@." "n" "k" "regs-used" "BRS15 n-k+1"
    "conj. n-k" "distinct-decided";
  List.iter
    (fun (n, k) ->
      let proto = Kset.make ~n ~k in
      let rng = Rng.create (n + k) in
      let inputs = Array.init n (fun _ -> Value.int (Rng.int rng 2)) in
      let o =
        Sim.run proto ~inputs ~policy:(Sim.Random rng) ~flips:(fun () -> true)
          ~budget:2_000_000
      in
      let decided = List.sort_uniq Value.compare (List.map snd o.Sim.decisions) in
      Format.printf "%4d %4d %12d %14d %16d %16d@." n k proto.Protocol.num_registers
        (n - k + 1) (n - k) (List.length decided))
    [ 2, 1; 4, 2; 8, 2; 8, 4; 16, 4; 32, 8 ];
  (* multivalued consensus: the per-instance bound composes *)
  Format.printf "@.multivalued consensus (bit-by-bit over binary instances):@.";
  Format.printf "%4s %6s %12s %18s@." "n" "bits" "regs-used" "n-1 per instance";
  List.iter
    (fun (n, bits) ->
      let proto = Multivalued.make ~n ~bits in
      Format.printf "%4d %6d %12d %18d@." n bits proto.Protocol.num_registers (n - 1))
    [ 4, 2; 4, 4; 8, 4; 8, 8 ]

(* E16: Burns-Lynch covering configurations in real locks. *)
let e16 () =
  header "E16" "Burns-Lynch covering (the technique Zhu builds on), measured on real locks";
  Format.printf "%-16s %4s %14s %12s %12s %12s@." "lock" "n" "best-covered" "registers"
    "configs" "exhaustive";
  List.iter
    (fun (Ts_lecture.Algorithm.Packed alg) ->
      let r = Ts_lecture.Covering_search.search alg ~max_configs:120_000 in
      Format.printf "%-16s %4d %14d %12d %12d %12b@." r.Ts_lecture.Covering_search.algorithm
        r.Ts_lecture.Covering_search.n r.Ts_lecture.Covering_search.best_covered
        alg.Ts_lecture.Algorithm.num_registers r.Ts_lecture.Covering_search.configs_explored
        (not r.Ts_lecture.Covering_search.truncated))
    [
      Ts_lecture.Algorithm.Packed (Ts_lecture.Peterson.make ~n:2);
      Ts_lecture.Algorithm.Packed (Ts_lecture.Peterson.make ~n:3);
      Ts_lecture.Algorithm.Packed (Ts_lecture.Tournament.make ~n:2);
      Ts_lecture.Algorithm.Packed (Ts_lecture.Tournament.make ~n:3);
      Ts_lecture.Algorithm.Packed (Ts_lecture.Bakery.make ~n:2);
      Ts_lecture.Algorithm.Packed (Ts_lecture.Tas_lock.make ~n:4);
    ];
  Format.printf
    "  BL93: a deadlock-free n-process register lock admits n covered registers;@.  \  the swap lock concentrates on one — historyless primitives evade covering.@."

(* E17: swap in the consensus model itself. *)
let e17 () =
  header "E17" "Swap in the consensus model (§4): one register, consensus number 2";
  let module E = Ts_checker.Explore in
  let proto2 = Swap_consensus.two_process () in
  let r2 =
    E.check_consensus proto2 ~inputs_list:(E.binary_inputs 2) ~max_configs:1_000
      ~max_depth:10 ~solo_budget:10 ~check_solo:true
  in
  Format.printf "  swap-consensus-2 (1 register): %s@."
    (match r2.E.verdict with
     | Ok () ->
       Printf.sprintf "correct — exhaustively checked (%d configurations)"
         r2.E.stats.E.configs_explored
     | Error _ -> "VIOLATION (bug!)");
  let t = Valency.create proto2 ~horizon:10 in
  (match Theorem.theorem1 t with
   | cert ->
     Format.printf "  Theorem 1 on it: %d register written = bound n-1 = 1 (tight)@."
       (List.length cert.Theorem.registers_written)
   | exception Valency.Horizon_exceeded m -> Format.printf "  engine failed: %s@." m);
  let r3 =
    E.check_consensus (Swap_consensus.naive_chain ~n:3) ~inputs_list:(E.binary_inputs 3)
      ~max_configs:5_000 ~max_depth:12 ~solo_budget:10 ~check_solo:false
  in
  Format.printf "  swap-chain-3: %s@."
    (match r3.E.verdict with
     | Error v -> Format.asprintf "caught — %a (consensus number of swap is 2)" E.pp_violation v
     | Ok () -> "NOT caught (bug!)");
  Format.printf
    "  One swap register solves 2-process consensus wait-free; registers cannot.@.  \  Zhu's proof machinery runs on swap protocols but its n-1 bound is only@.  \  known for read/write registers — the open problem of §4.@."

(* E26: the two lower-bound engines side by side.  Same protocols, same
   claimed bound, incomparable machinery: the Lemmas engine pays for
   valency-oracle searches, the revisionist engine for simulated private
   steps and revisions.  Each row is one run of the two-engine comparison
   the registry gate runs, so both witnesses are accepted (replay,
   certificate replay, micro-checker) before the row reports a bound; the
   schedule and effort columns come from the engines' own certificates.
   The ledger's micro.e1_theorem1_racing2_us and
   micro.e26_revisionist_racing2_us rows time the two engines. *)
let e26 () =
  header "E26" "Two engines, one bound: Lemmas 1-4 vs revisionist simulations";
  let module X = Ts_analysis.Crosscheck in
  let module Rev = Ts_revisionist.Revisionist in
  Format.printf "%-14s %4s %6s | %12s %9s | %12s %9s@." "protocol" "n" "agree"
    "lemmas-sched" "searches" "rev-sched" "revisions";
  List.iter
    (fun (Protocol.Packed proto) ->
      let n = proto.Protocol.num_processes in
      let c = X.compare_engines proto in
      match (c.X.lemmas.X.outcome, c.X.revisionist.X.outcome) with
      | Theorem.Complete l, Rev.Complete r ->
        let agree =
          match c.X.verdict with
          | X.Agreed b -> string_of_int b
          | X.Diverged _ | X.Unavailable _ -> "DIVERGE"
        in
        Format.printf "%-14s %4d %6s | %12d %9d | %12d %9d@." proto.Protocol.name n agree
          (List.length l.Theorem.schedule)
          l.Theorem.effort.Theorem.oracle_searches
          (List.length r.Theorem.schedule)
          r.Theorem.effort.Rev.revisions
      | _ ->
        Format.printf "%-14s %4d %6s@." proto.Protocol.name n
          "(an engine stopped)")
    [
      Protocol.Packed (Racing.make ~n:2);
      Protocol.Packed (Racing.make ~n:3);
      Protocol.Packed (Racing.make_randomized ~n:2);
      Protocol.Packed (Swap_consensus.two_process ());
    ];
  Format.printf
    "  Same bound from disjoint proofs: the oracle-driven Lemma walk and the@.  \
     \  parking adversary each build an accepted n-1 witness, though their@.  \
     \  schedules and registers may differ (tightspace analyze --all gates CI@.  \
     \  on exactly this comparison).@."

let all ?max_n () =
  e1 ?max_n ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e26 ()
