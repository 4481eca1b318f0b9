(* Benchmark harness: prints every experiment table of EXPERIMENTS.md.

   --deep   larger n for the tables

   Timings are not taken here: the performance record across changes is
   the benchmark ledger (sh ledger/run.sh), whose micro.* rows time the
   engine's building blocks. *)

let () =
  let args = Array.to_list Sys.argv in
  let max_n = if List.mem "--deep" args then 5 else 4 in
  Format.printf "tightspace benchmark harness — reproduction of Zhu, 'A Tight Space Bound@.";
  Format.printf "for Consensus' (PODC'16 BA / STOC'16), plus the JTT and Fan-Lynch bounds.@.";
  Tables.all ~max_n ();
  Format.printf "@.done.@."
