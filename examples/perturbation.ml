(* Covering and hiding: the Jayanti-Tan-Toueg adversary, narrated.

   The adversary parks processes on pending writes ("covering"), then shows
   that a perturbing operation stopped before its first fresh write is
   invisible once the covering block write lands — while a completed
   operation survives.  This is why perturbable objects need a fresh
   register per process: the n-1 space bound.

     dune exec examples/perturbation.exe
*)
open Ts_lecture

let narrate run name ~n =
  let r = run ~n in
  Format.printf "@.=== %s, n = %d ===@." name n;
  Format.printf "adversary parked %d processes on pending writes, covering registers {%a}@."
    (List.length r.Adversary.cover)
    Fmt.(list ~sep:comma (fmt "R%d"))
    (List.map snd r.Adversary.cover);
  Format.printf "distinct covered registers: %d (JTT bound: n-1 = %d)@."
    r.Adversary.distinct_covered r.Adversary.jtt_bound;
  Format.printf "the prober's operation took %d steps and touched %d registers@."
    r.Adversary.probe_steps r.Adversary.probe_accesses;
  Format.printf "hiding experiment (stage n-2):@.";
  Format.printf "  probe after block write only:            %s@."
    (Ts_model.Value.to_string r.Adversary.base_probe);
  Format.printf "  ... with a truncated perturbation added: %s  (invisible: %b)@."
    (Ts_model.Value.to_string r.Adversary.hidden_probe)
    r.Adversary.hidden_invisible;
  Format.printf "  ... with a completed perturbation added: %s  (visible: %b)@."
    (Ts_model.Value.to_string r.Adversary.completed_probe)
    r.Adversary.completed_visible

let () =
  Format.printf "The perturbable-object bound (lecture part I.1), executed.@.";
  narrate Adversary.run_counter "wait-free counter" ~n:5;
  narrate Adversary.run_maxreg "max-register" ~n:5;
  narrate Adversary.run_snapshot "atomic snapshot (Afek et al.)" ~n:4;
  Format.printf
    "@.An operation that never writes outside the covered registers can be@.\
     erased by the block write — so every process must own a fresh register,@.\
     and any such object implementation uses at least n-1 of them.@."
