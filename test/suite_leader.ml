(* Splitter and tournament leader election. *)
open Ts_model
open Ts_lecture

let run_splitter_interleaving ~n ~seed =
  let rng = Rng.create seed in
  let s = Runner.create (Splitter.make ~n) in
  for p = 0 to n - 1 do
    Runner.invoke s p Splitter.Split
  done;
  let results = Array.make n None in
  let pending = ref (List.init n Fun.id) in
  while !pending <> [] do
    let p = List.nth !pending (Rng.int rng (List.length !pending)) in
    match Runner.step s p with
    | `Returned v ->
      results.(p) <- Some (Splitter.outcome_of_value v);
      pending := List.filter (fun q -> q <> p) !pending
    | `Continues -> ()
  done;
  Array.to_list results |> List.map Option.get

let test_splitter_solo_stops () =
  let s = Runner.create (Splitter.make ~n:3) in
  let v, _ = Runner.op s 1 Splitter.Split in
  Alcotest.(check bool) "solo split stops" true (Splitter.outcome_of_value v = Splitter.Stop)

let test_splitter_uses_two_registers () =
  Alcotest.(check int) "two registers" 2 (Splitter.make ~n:16).Impl.num_registers

let test_splitter_properties_random () =
  List.iter
    (fun n ->
      for seed = 1 to 60 do
        let rs = run_splitter_interleaving ~n ~seed in
        let count o = List.length (List.filter (fun x -> x = o) rs) in
        Alcotest.(check bool) "at most one stop" true (count Splitter.Stop <= 1);
        Alcotest.(check bool) "not everyone right" true (count Splitter.Right <= n - 1);
        Alcotest.(check bool) "not everyone down" true (count Splitter.Down <= n - 1)
      done)
    [ 2; 3; 5 ]

let test_splitter_sequential_two () =
  (* second process to run alone after a Stop must not Stop *)
  let s = Runner.create (Splitter.make ~n:2) in
  let v0, _ = Runner.op s 0 Splitter.Split in
  let v1, _ = Runner.op s 1 Splitter.Split in
  Alcotest.(check bool) "first stops" true (Splitter.outcome_of_value v0 = Splitter.Stop);
  Alcotest.(check bool) "second does not stop" true
    (Splitter.outcome_of_value v1 <> Splitter.Stop)

let elect_all ~n ~seed =
  let rng = Rng.create seed in
  let s = Runner.create (Election.make ~n) in
  for p = 0 to n - 1 do
    Runner.invoke s p Election.Elect
  done;
  let results = Array.make n None in
  let pending = ref (List.init n Fun.id) in
  while !pending <> [] do
    let p = List.nth !pending (Rng.int rng (List.length !pending)) in
    match Runner.step s p with
    | `Returned v ->
      results.(p) <- Some (Value.to_bool v);
      pending := List.filter (fun q -> q <> p) !pending
    | `Continues -> ()
  done;
  Array.map Option.get results

let test_election_exactly_one_leader () =
  List.iter
    (fun n ->
      for seed = 1 to 40 do
        let rs = elect_all ~n ~seed in
        let leaders = Array.to_list rs |> List.filter Fun.id |> List.length in
        Alcotest.(check int) (Printf.sprintf "n=%d seed=%d: one leader" n seed) 1 leaders
      done)
    [ 1; 2; 3; 4; 5; 8 ]

let test_election_solo_is_leader () =
  let s = Runner.create (Election.make ~n:8) in
  let v, _ = Runner.op s 3 Election.Elect in
  Alcotest.(check bool) "solo elect wins" true (Value.to_bool v)

let test_election_solo_touches_log_registers () =
  (* space adaptivity: a solo passage touches only its root path *)
  let n = 16 in
  let impl = Election.make ~n in
  let s = Runner.create impl in
  ignore (Runner.op s 0 Election.Elect);
  let touched = List.length (Runner.op_accesses s 0) in
  Alcotest.(check bool) "solo touches 4*log2 n registers" true (touched <= 4 * 4);
  Alcotest.(check bool) "much less than total" true (touched * 3 < impl.Impl.num_registers)

let test_election_register_count () =
  Alcotest.(check int) "4(n-1) registers for power of two" 28
    (Election.make ~n:8).Impl.num_registers

let test_election_losers_terminate () =
  (* whoever loses still returns (obstruction-freedom in our schedules) *)
  let n = 4 in
  let rs = elect_all ~n ~seed:77 in
  Alcotest.(check int) "all return" n (Array.length rs)

let suite =
  ( "leader",
    [
      Alcotest.test_case "splitter: solo stops" `Quick test_splitter_solo_stops;
      Alcotest.test_case "splitter: two registers" `Quick test_splitter_uses_two_registers;
      Alcotest.test_case "splitter: properties under random schedules" `Quick
        test_splitter_properties_random;
      Alcotest.test_case "splitter: sequential pair" `Quick test_splitter_sequential_two;
      Alcotest.test_case "election: exactly one leader" `Slow test_election_exactly_one_leader;
      Alcotest.test_case "election: solo is leader" `Quick test_election_solo_is_leader;
      Alcotest.test_case "election: solo space adaptivity" `Quick
        test_election_solo_touches_log_registers;
      Alcotest.test_case "election: register count" `Quick test_election_register_count;
      Alcotest.test_case "election: losers terminate" `Quick test_election_losers_terminate;
    ] )
