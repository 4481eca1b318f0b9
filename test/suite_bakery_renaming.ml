(* The bakery lock, splitter-grid renaming, and the weak shared coin. *)
open Ts_model
open Ts_lecture

let test_bakery_serial () =
  List.iter
    (fun n ->
      let order = Array.init n (fun i -> n - 1 - i) in
      let o = Arena.serial (Bakery.make ~n) ~order in
      Alcotest.(check (list int)) "order realized" (Array.to_list order) o.Arena.cs_order)
    [ 1; 2; 3; 6 ]

let test_bakery_contended () =
  List.iter
    (fun n ->
      let o = Arena.contended (Bakery.make ~n) in
      Alcotest.(check (list int)) "everyone enters once" (List.init n Fun.id)
        (List.sort compare o.Arena.cs_order))
    [ 2; 3; 4; 8 ]

let test_bakery_fifo_under_round_robin () =
  (* round-robin from a cold start: all processes clear the doorway in pid
     order (p0 first), so the bakery's FCFS property forces CS order
     0,1,...,n-1 *)
  let n = 5 in
  let o = Arena.contended (Bakery.make ~n) in
  Alcotest.(check (list int)) "FIFO order" (List.init n Fun.id) o.Arena.cs_order

let test_bakery_mutual_exclusion_random () =
  let n = 4 in
  for seed = 1 to 15 do
    let rng = Rng.create (seed * 7) in
    let s = Arena.session (Bakery.make ~n) in
    for p = 0 to n - 1 do
      Arena.start_proc s p
    done;
    let remaining = ref n in
    let guard = ref 500_000 in
    while !remaining > 0 && !guard > 0 do
      decr guard;
      let alive = List.filter (Arena.active s) (List.init n Fun.id) in
      match alive with
      | [] -> remaining := 0
      | _ ->
        let p = List.nth alive (Rng.int rng (List.length alive)) in
        (match Arena.step_proc s p with `Done -> decr remaining | `Continues -> ())
    done;
    Alcotest.(check int) "all passages complete" 0 !remaining
  done

let test_bakery_cost_quadratic () =
  let cost n = (Arena.serial (Bakery.make ~n) ~order:(Array.init n Fun.id)).Arena.cost in
  let ratio = float_of_int (cost 32) /. float_of_int (cost 8) in
  Alcotest.(check bool) "bakery ~ n^2" true (ratio > 10. && ratio < 24.);
  (* and it sits between the tree and Peterson at n = 32 *)
  let tree = (Arena.serial (Tournament.make ~n:32) ~order:(Array.init 32 Fun.id)).Arena.cost in
  Alcotest.(check bool) "above the arbitration tree" true (cost 32 > tree)

let test_bakery_covering () =
  let r = Covering_search.search (Bakery.make ~n:2) ~max_configs:150_000 in
  Alcotest.(check bool) "covers >= n registers" true (r.Covering_search.best_covered >= 2);
  Alcotest.(check bool) "no exclusion violation" false r.Covering_search.exclusion_violated

(* --- renaming --- *)

let run_renaming ~n ~seed =
  let rng = Rng.create seed in
  let s = Runner.create (Renaming.make ~n) in
  for p = 0 to n - 1 do
    Runner.invoke s p Renaming.Rename
  done;
  let names = Array.make n None in
  let pending = ref (List.init n Fun.id) in
  while !pending <> [] do
    let p = List.nth !pending (Rng.int rng (List.length !pending)) in
    match Runner.step s p with
    | `Returned v ->
      names.(p) <- Some (Value.to_int v);
      pending := List.filter (fun q -> q <> p) !pending
    | `Continues -> ()
  done;
  Array.to_list names |> List.map Option.get

let test_renaming_solo_gets_zero () =
  let s = Runner.create (Renaming.make ~n:5) in
  let v, _ = Runner.op s 3 Renaming.Rename in
  Alcotest.(check int) "solo stops at the corner" 0 (Value.to_int v)

let test_renaming_unique_names () =
  List.iter
    (fun n ->
      for seed = 1 to 30 do
        let names = run_renaming ~n ~seed in
        Alcotest.(check int) "distinct names" n
          (List.length (List.sort_uniq compare names));
        List.iter
          (fun name ->
            Alcotest.(check bool) "name within n(n+1)/2" true
              (name >= 0 && name < Renaming.name_space n))
          names
      done)
    [ 1; 2; 3; 5; 7 ]

let test_renaming_name_space () =
  Alcotest.(check int) "n(n+1)/2" 15 (Renaming.name_space 5);
  Alcotest.(check int) "registers = 2 * names" 30 (Renaming.make ~n:5).Impl.num_registers;
  Alcotest.(check int) "corner name" 0 (Renaming.name_of ~row:0 ~diag:0);
  Alcotest.(check int) "diag 1 row 0" 1 (Renaming.name_of ~row:0 ~diag:1);
  Alcotest.(check int) "diag 1 row 1" 2 (Renaming.name_of ~row:1 ~diag:1)

(* --- shared coin --- *)

let toss_all ~n ~k ~seed =
  let rng = Rng.create seed in
  let s = Runner.create (Shared_coin.make ~n ~k) in
  for p = 0 to n - 1 do
    Runner.invoke s p (Shared_coin.Toss { seed = seed + (p * 101) })
  done;
  let outs = Array.make n None in
  let pending = ref (List.init n Fun.id) in
  let guard = ref 2_000_000 in
  while !pending <> [] && !guard > 0 do
    decr guard;
    let p = List.nth !pending (Rng.int rng (List.length !pending)) in
    match Runner.step s p with
    | `Returned v ->
      outs.(p) <- Some (Value.to_bool v);
      pending := List.filter (fun q -> q <> p) !pending
    | `Continues -> ()
  done;
  Alcotest.(check bool) "all tosses returned" true (!pending = []);
  Array.to_list outs |> List.map Option.get

let test_coin_terminates_and_agreement_is_common () =
  let n = 3 in
  let agreed = ref 0 in
  let trials = 30 in
  for seed = 1 to trials do
    let outs = toss_all ~n ~k:3 ~seed:(seed * 997) in
    if List.length (List.sort_uniq compare outs) = 1 then incr agreed
  done;
  (* a weak shared coin must produce unanimous outcomes with constant
     probability; with threshold 3n the empirical rate is high *)
  Alcotest.(check bool)
    (Printf.sprintf "unanimous in %d/%d trials" !agreed trials)
    true
    (!agreed * 2 > trials)

let test_coin_solo_deterministic () =
  let run () =
    let s = Runner.create (Shared_coin.make ~n:2 ~k:1) in
    fst (Runner.op s 0 (Shared_coin.Toss { seed = 12345 }))
  in
  Alcotest.(check bool) "same seed, same outcome" true (Value.equal (run ()) (run ()))

let test_coin_rejects_bad_k () =
  Alcotest.check_raises "k=0" (Invalid_argument "Shared_coin.make: k >= 1") (fun () ->
      ignore (Shared_coin.make ~n:2 ~k:0))

let suite =
  ( "bakery-renaming-coin",
    [
      Alcotest.test_case "bakery: serial orders" `Quick test_bakery_serial;
      Alcotest.test_case "bakery: contended" `Quick test_bakery_contended;
      Alcotest.test_case "bakery: FIFO under round robin" `Quick test_bakery_fifo_under_round_robin;
      Alcotest.test_case "bakery: random schedules safe" `Slow test_bakery_mutual_exclusion_random;
      Alcotest.test_case "bakery: quadratic cost" `Quick test_bakery_cost_quadratic;
      Alcotest.test_case "bakery: covering configurations" `Slow test_bakery_covering;
      Alcotest.test_case "renaming: solo gets 0" `Quick test_renaming_solo_gets_zero;
      Alcotest.test_case "renaming: unique names in range" `Quick test_renaming_unique_names;
      Alcotest.test_case "renaming: name space arithmetic" `Quick test_renaming_name_space;
      Alcotest.test_case "coin: termination + common agreement" `Quick
        test_coin_terminates_and_agreement_is_common;
      Alcotest.test_case "coin: solo determinism" `Quick test_coin_solo_deterministic;
      Alcotest.test_case "coin: parameter check" `Quick test_coin_rejects_bad_k;
    ] )
