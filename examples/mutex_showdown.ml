(* Mutual exclusion under the Fan-Lynch state-change cost model.

   Canonical executions (every process enters the critical section once)
   for three locks: Peterson's filter lock, an arbitration tree of
   2-process Peterson locks, and a swap-based test-and-set lock.  The
   encoder then squeezes a canonical execution into bits and gets the
   critical-section permutation back out.

     dune exec examples/mutex_showdown.exe
*)
open Ts_model
open Ts_lecture

let () =
  Format.printf "Canonical executions in the state-change cost model@.";
  Format.printf "%4s %12s %12s %12s %14s@." "n" "peterson" "tournament" "tas(swap)"
    "FL bound nlog2n";
  List.iter
    (fun n ->
      let order = Array.init n Fun.id in
      let cost alg = (Arena.serial alg ~order).Arena.cost in
      Format.printf "%4d %12d %12d %12d %14.0f@." n
        (cost (Peterson.make ~n))
        (cost (Tournament.make ~n))
        (cost (Tas_lock.make ~n))
        (Ts_core.Bounds.fan_lynch_cost n))
    [ 2; 4; 8; 16; 32; 64 ];

  (* contention: everyone in the trying section at once *)
  let n = 8 in
  let o = Arena.contended (Tournament.make ~n) in
  Format.printf "@.contended tournament, n=%d: cost %d, CS order %a@." n o.Arena.cost
    Fmt.(Dump.list int) o.Arena.cs_order;

  (* encoder/decoder: the information-theoretic argument, live *)
  let alg = Tournament.make ~n in
  let order = Rng.permutation (Rng.create 17) n in
  let oserial = Arena.serial alg ~order in
  (match Ts_lecture.Codec.round_trip alg oserial with
   | Ok enc ->
     let o' = Ts_lecture.Codec.decode (Tournament.make ~n) enc in
     Format.printf
       "@.encoded a canonical execution for order %a@.\
        into %d bits (entropy floor log2(%d!) = %.1f);@.\
        decoder replayed it and recovered the order %a@."
       Fmt.(Dump.list int) (Array.to_list order)
       (snd enc.Ts_lecture.Codec.bits) n
       (Ts_core.Bounds.log2_factorial n)
       Fmt.(Dump.list int) o'.Arena.cs_order
   | Error e -> Format.printf "round trip failed: %s@." e);
  Format.printf
    "@.Since the decoder recovers the permutation, the n! canonical executions@.\
     have distinct encodings, so some execution costs Ω(n log n) to describe —@.\
     the Fan-Lynch lower bound, matched by the arbitration tree above.@."
