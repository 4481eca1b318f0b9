(* Shared objects from registers: counter, max-register, snapshot. *)
open Ts_model
open Ts_lecture

(* Run a random interleaving of [ops] = (pid, op) list, all invoked up
   front per process queue, and return the history. *)
let random_history impl ops ~seed =
  let rng = Rng.create seed in
  let s = Runner.create impl in
  let queues = Hashtbl.create 8 in
  List.iter
    (fun (p, op) ->
      Hashtbl.replace queues p (Option.value ~default:[] (Hashtbl.find_opt queues p) @ [ op ]))
    ops;
  let alive () =
    Hashtbl.fold (fun p q acc -> if q <> [] || Runner.busy s p then p :: acc else acc) queues []
    |> List.sort compare
  in
  let rec drive () =
    match alive () with
    | [] -> ()
    | ps ->
      let p = List.nth ps (Rng.int rng (List.length ps)) in
      if not (Runner.busy s p) then begin
        match Hashtbl.find queues p with
        | op :: rest ->
          Hashtbl.replace queues p rest;
          Runner.invoke s p op
        | [] -> ()
      end
      else ignore (Runner.step s p);
      drive ()
  in
  drive ();
  (* let any still-busy ops finish *)
  List.iter (fun p -> if Runner.busy s p then ignore (Runner.finish s p))
    (List.init impl.Impl.num_processes Fun.id);
  Runner.history s

let test_counter_sequential () =
  let s = Runner.create (Counter.make ~n:2) in
  Alcotest.(check int) "fresh counter reads 0" 0
    (Value.to_int (fst (Runner.op s 0 Counter.Read_count)));
  ignore (Runner.op s 0 Counter.Inc);
  ignore (Runner.op s 1 Counter.Inc);
  ignore (Runner.op s 0 Counter.Inc);
  Alcotest.(check int) "three incs" 3 (Value.to_int (fst (Runner.op s 1 Counter.Read_count)))

let test_counter_per_slot () =
  let s = Runner.create (Counter.make ~n:3) in
  ignore (Runner.op s 2 Counter.Inc);
  Alcotest.(check int) "slot written" 1 (Value.to_int (Runner.register s 2));
  Alcotest.(check bool) "other slots untouched" true (Value.is_bot (Runner.register s 0))

let test_counter_linearizable_random () =
  for seed = 1 to 30 do
    let n = 3 in
    let ops =
      List.concat_map (fun p -> [ p, Counter.Inc; p, Counter.Read_count; p, Counter.Inc ])
        (List.init n Fun.id)
    in
    let h = random_history (Counter.make ~n) ops ~seed in
    match Linearize.check Linearize.counter_spec h with
    | Some _ -> ()
    | None -> Alcotest.failf "counter history not linearizable (seed %d)" seed
  done

let test_maxreg_sequential () =
  let s = Runner.create (Maxreg.make ~n:2) in
  Alcotest.(check int) "fresh max is 0" 0 (Value.to_int (fst (Runner.op s 0 Maxreg.Read_max)));
  ignore (Runner.op s 0 (Maxreg.Write_max 5));
  ignore (Runner.op s 1 (Maxreg.Write_max 3));
  Alcotest.(check int) "max survives smaller write" 5
    (Value.to_int (fst (Runner.op s 1 Maxreg.Read_max)));
  ignore (Runner.op s 1 (Maxreg.Write_max 9));
  Alcotest.(check int) "max raised" 9 (Value.to_int (fst (Runner.op s 0 Maxreg.Read_max)))

let test_maxreg_skips_write () =
  let s = Runner.create (Maxreg.make ~n:2) in
  ignore (Runner.op s 0 (Maxreg.Write_max 5));
  let before = Runner.written s in
  ignore (Runner.op s 0 (Maxreg.Write_max 2));
  Alcotest.(check (list int)) "no new register written for smaller value" before (Runner.written s)

let test_maxreg_rejects_negative () =
  let s = Runner.create (Maxreg.make ~n:2) in
  Alcotest.check_raises "negative" (Invalid_argument "Maxreg: negative value") (fun () ->
      Runner.invoke s 0 (Maxreg.Write_max (-1)))

let test_maxreg_linearizable_random () =
  for seed = 1 to 30 do
    let n = 3 in
    let ops =
      List.concat_map
        (fun p -> [ p, Maxreg.Write_max (p + 1); p, Maxreg.Read_max; p, Maxreg.Write_max (3 * (p + 1)) ])
        (List.init n Fun.id)
    in
    let h = random_history (Maxreg.make ~n) ops ~seed in
    match Linearize.check Linearize.maxreg_spec h with
    | Some _ -> ()
    | None -> Alcotest.failf "maxreg history not linearizable (seed %d)" seed
  done

let test_snapshot_sequential () =
  let n = 3 in
  let s = Runner.create (Snapshot.make ~n) in
  ignore (Runner.op s 0 (Snapshot.Update (Value.int 7)));
  ignore (Runner.op s 2 (Snapshot.Update (Value.int 9)));
  let view, _ = Runner.op s 1 Snapshot.Scan in
  Alcotest.(check (list string)) "view" [ "7"; "⊥"; "9" ]
    (List.map Value.to_string (Snapshot.view_of_scan view))

let test_snapshot_update_overwrites () =
  let s = Runner.create (Snapshot.make ~n:2) in
  ignore (Runner.op s 0 (Snapshot.Update (Value.int 1)));
  ignore (Runner.op s 0 (Snapshot.Update (Value.int 2)));
  let view, _ = Runner.op s 1 Snapshot.Scan in
  Alcotest.(check string) "latest value visible" "2"
    (Value.to_string (List.nth (Snapshot.view_of_scan view) 0))

let test_snapshot_borrowed_view () =
  (* Force the borrow path: a scanner sees p1 move twice and must adopt
     p1's embedded view, which itself must be a legal snapshot. *)
  let n = 2 in
  let s = Runner.create (Snapshot.make ~n) in
  (* scanner p0 starts and completes its first collect *)
  Runner.invoke s 0 Snapshot.Scan;
  for _ = 1 to n do ignore (Runner.step s 0) done;
  (* p1 performs two full updates, each moving its sequence number *)
  ignore (Runner.op s 1 (Snapshot.Update (Value.int 10)));
  (* second collect observes the first move *)
  for _ = 1 to n do ignore (Runner.step s 0) done;
  ignore (Runner.op s 1 (Snapshot.Update (Value.int 20)));
  let view, _ = Runner.finish s 0 in
  let vs = Snapshot.view_of_scan view in
  Alcotest.(check int) "view arity" n (List.length vs);
  (* the borrowed view reflects one of p1's updates *)
  Alcotest.(check bool) "p1 entry is 10 or 20" true
    (List.mem (Value.to_string (List.nth vs 1)) [ "10"; "20" ]);
  match Linearize.check (Linearize.snapshot_spec ~n) (Runner.history s) with
  | Some _ -> ()
  | None -> Alcotest.fail "borrow-path history not linearizable"

let test_snapshot_linearizable_random () =
  for seed = 1 to 25 do
    let n = 3 in
    let ops =
      List.concat_map
        (fun p -> [ p, Snapshot.Update (Value.int (10 + p)); p, Snapshot.Scan ])
        (List.init n Fun.id)
    in
    let h = random_history (Snapshot.make ~n) ops ~seed in
    match Linearize.check (Linearize.snapshot_spec ~n) h with
    | Some _ -> ()
    | None -> Alcotest.failf "snapshot history not linearizable (seed %d)" seed
  done

let test_snapshot_scan_terminates_under_interference () =
  (* wait-freedom: a scan completes within (n+2) collects even while the
     other processes keep updating *)
  let n = 4 in
  let s = Runner.create (Snapshot.make ~n) in
  Runner.invoke s 0 Snapshot.Scan;
  let steps = ref 0 in
  let continue = ref true in
  while !continue do
    (* one scanner step, then everyone else does a full update *)
    (match Runner.step s 0 with `Returned _ -> continue := false | `Continues -> incr steps);
    if !continue then
      for p = 1 to n - 1 do
        ignore (Runner.op s p (Snapshot.Update (Value.int !steps)))
      done;
    if !steps > 10_000 then Alcotest.fail "scan did not terminate"
  done;
  Alcotest.(check bool) "scan bounded by (n+2) collects" true (!steps <= (n + 2) * n + n)

let test_runner_clone_isolation () =
  let s = Runner.create (Counter.make ~n:2) in
  ignore (Runner.op s 0 Counter.Inc);
  let s' = Runner.clone s in
  ignore (Runner.op s' 0 Counter.Inc);
  Alcotest.(check int) "clone advanced" 2 (Value.to_int (fst (Runner.op s' 1 Counter.Read_count)));
  Alcotest.(check int) "original untouched" 1 (Value.to_int (fst (Runner.op s 1 Counter.Read_count)))

let test_runner_busy_protocol () =
  let s = Runner.create (Counter.make ~n:2) in
  Runner.invoke s 0 Counter.Inc;
  Alcotest.(check bool) "busy" true (Runner.busy s 0);
  Alcotest.check_raises "double invoke" (Invalid_argument "Runner.invoke: operation already in progress")
    (fun () -> Runner.invoke s 0 Counter.Inc);
  Alcotest.check_raises "step idle" (Invalid_argument "Runner.step: no operation in progress")
    (fun () -> ignore (Runner.step s 1))

let test_runner_access_tracking () =
  let n = 4 in
  let s = Runner.create (Counter.make ~n) in
  ignore (Runner.op s 0 Counter.Read_count);
  Alcotest.(check int) "read collects all slots" n (List.length (Runner.op_accesses s 0));
  ignore (Runner.op s 1 Counter.Inc);
  Alcotest.(check (list int)) "inc touches own slot" [ 1 ] (Runner.op_accesses s 1);
  Alcotest.(check (list int)) "written registers" [ 1 ] (Runner.written s)

let suite =
  ( "objects",
    [
      Alcotest.test_case "counter: sequential" `Quick test_counter_sequential;
      Alcotest.test_case "counter: slot layout" `Quick test_counter_per_slot;
      Alcotest.test_case "counter: random histories linearizable" `Slow test_counter_linearizable_random;
      Alcotest.test_case "maxreg: sequential" `Quick test_maxreg_sequential;
      Alcotest.test_case "maxreg: smaller write skipped" `Quick test_maxreg_skips_write;
      Alcotest.test_case "maxreg: rejects negatives" `Quick test_maxreg_rejects_negative;
      Alcotest.test_case "maxreg: random histories linearizable" `Slow test_maxreg_linearizable_random;
      Alcotest.test_case "snapshot: sequential" `Quick test_snapshot_sequential;
      Alcotest.test_case "snapshot: update overwrites" `Quick test_snapshot_update_overwrites;
      Alcotest.test_case "snapshot: borrowed view" `Quick test_snapshot_borrowed_view;
      Alcotest.test_case "snapshot: random histories linearizable" `Slow test_snapshot_linearizable_random;
      Alcotest.test_case "snapshot: scan wait-free under interference" `Quick
        test_snapshot_scan_terminates_under_interference;
      Alcotest.test_case "runner: clone isolation" `Quick test_runner_clone_isolation;
      Alcotest.test_case "runner: busy protocol" `Quick test_runner_busy_protocol;
      Alcotest.test_case "runner: access tracking" `Quick test_runner_access_tracking;
    ] )
