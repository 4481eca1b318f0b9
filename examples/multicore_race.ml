(* The same consensus state machines on real OCaml 5 domains.

   Registers become Atomic.t cells, processes become domains, and the
   schedules come from the operating system instead of an adversary.
   Agreement and validity must still hold on every trial.

     dune exec examples/multicore_race.exe
*)
open Ts_protocols
open Ts_lecture

let () =
  Format.printf "Racing-counters consensus on OCaml 5 domains (Atomic registers)@.";
  List.iter
    (fun (proto, trials) ->
      let s = Atomic_run.run proto ~trials ~seed:4242 ~step_budget:1_000_000 ~mixed_inputs:true in
      Format.printf "  %a@." Atomic_run.pp_stats s)
    [
      Racing.make ~n:2, 40;
      Racing.make ~n:3, 25;
      Racing.make ~n:4, 15;
      Racing.make_randomized ~n:3, 15;
    ];
  Format.printf
    "@.Zero agreement/validity failures expected: the simulator's adversary is@.\
     strictly more hostile than any schedule the OS produces, and the protocol@.\
     was model-checked under it.  (Single-core container: domains interleave@.\
     preemptively; we validate correctness, not speedup.)@."
