(* The linearizability checker itself, on hand-crafted histories. *)
open Ts_model
open Ts_lecture

let inv p op = History.Inv (p, op)
let res p v = History.Res (p, v)

let test_empty_history () =
  Alcotest.(check bool) "empty history linearizable" true
    (Linearize.check Linearize.counter_spec [] = Some [])

let test_sequential_ok () =
  let h =
    [ inv 0 Counter.Inc; res 0 Value.bot; inv 1 Counter.Read_count; res 1 (Value.int 1) ]
  in
  Alcotest.(check bool) "sequential inc-read" true
    (Linearize.check Linearize.counter_spec h <> None)

let test_sequential_wrong_value () =
  let h =
    [ inv 0 Counter.Inc; res 0 Value.bot; inv 1 Counter.Read_count; res 1 (Value.int 0) ]
  in
  Alcotest.(check bool) "read 0 after completed inc is not linearizable" true
    (Linearize.check Linearize.counter_spec h = None)

let test_concurrent_read_may_miss () =
  (* read overlapping an inc may return 0 or 1 *)
  let h0 =
    [ inv 1 Counter.Read_count; inv 0 Counter.Inc; res 0 Value.bot; res 1 (Value.int 0) ]
  in
  let h1 =
    [ inv 1 Counter.Read_count; inv 0 Counter.Inc; res 0 Value.bot; res 1 (Value.int 1) ]
  in
  Alcotest.(check bool) "may miss concurrent inc" true
    (Linearize.check Linearize.counter_spec h0 <> None);
  Alcotest.(check bool) "may see concurrent inc" true
    (Linearize.check Linearize.counter_spec h1 <> None)

let test_real_time_order_enforced () =
  (* two sequential reads must not go backwards: 1 then 0 is illegal once
     an inc has completed before the first read *)
  let h =
    [
      inv 0 Counter.Inc; res 0 Value.bot;
      inv 1 Counter.Read_count; res 1 (Value.int 1);
      inv 1 Counter.Read_count; res 1 (Value.int 0);
    ]
  in
  Alcotest.(check bool) "non-monotone reads rejected" true
    (Linearize.check Linearize.counter_spec h = None)

let test_witness_is_valid_order () =
  let h =
    [
      inv 0 Counter.Inc;
      inv 1 Counter.Read_count;
      res 1 (Value.int 1);
      res 0 Value.bot;
      inv 1 Counter.Read_count; res 1 (Value.int 1);
    ]
  in
  match Linearize.check Linearize.counter_spec h with
  | None -> Alcotest.fail "expected linearizable"
  | Some order ->
    Alcotest.(check int) "three operations" 3 (List.length order);
    Alcotest.(check (list int)) "all ops appear once" [ 0; 1; 2 ] (List.sort compare order)

let test_snapshot_spec_violation () =
  (* a scan returning a view that was never a state must be rejected:
     updates 1 then 2 complete sequentially; a later scan shows only the
     first *)
  let n = 2 in
  let h =
    [
      inv 0 (Snapshot.Update (Value.int 1)); res 0 Value.bot;
      inv 1 (Snapshot.Update (Value.int 2)); res 1 Value.bot;
      inv 0 Snapshot.Scan; res 0 (Value.list [ Value.int 1; Value.bot ]);
    ]
  in
  Alcotest.(check bool) "stale view rejected" true
    (Linearize.check (Linearize.snapshot_spec ~n) h = None)

let test_snapshot_spec_ok () =
  let n = 2 in
  let h =
    [
      inv 0 (Snapshot.Update (Value.int 1)); res 0 Value.bot;
      inv 1 (Snapshot.Update (Value.int 2)); res 1 Value.bot;
      inv 0 Snapshot.Scan; res 0 (Value.list [ Value.int 1; Value.int 2 ]);
    ]
  in
  Alcotest.(check bool) "current view accepted" true
    (Linearize.check (Linearize.snapshot_spec ~n) h <> None)

let test_complete_drops_pending () =
  let h = [ inv 0 Counter.Inc; inv 1 Counter.Read_count; res 1 (Value.int 0) ] in
  let c = History.complete h in
  Alcotest.(check int) "one op survives" 1 (List.length (History.operations c))

let test_operations_malformed () =
  Alcotest.check_raises "double invocation"
    (Invalid_argument "History.operations: double invocation") (fun () ->
      ignore (History.operations [ inv 0 Counter.Inc; inv 0 Counter.Inc ]));
  Alcotest.check_raises "orphan response"
    (Invalid_argument "History.operations: response without invocation") (fun () ->
      ignore (History.operations [ res 0 Value.bot ]))

let suite =
  ( "linearize",
    [
      Alcotest.test_case "empty history" `Quick test_empty_history;
      Alcotest.test_case "sequential history accepted" `Quick test_sequential_ok;
      Alcotest.test_case "wrong sequential value rejected" `Quick test_sequential_wrong_value;
      Alcotest.test_case "concurrent read both ways" `Quick test_concurrent_read_may_miss;
      Alcotest.test_case "real-time order enforced" `Quick test_real_time_order_enforced;
      Alcotest.test_case "witness is a valid order" `Quick test_witness_is_valid_order;
      Alcotest.test_case "snapshot: stale view rejected" `Quick test_snapshot_spec_violation;
      Alcotest.test_case "snapshot: fresh view accepted" `Quick test_snapshot_spec_ok;
      Alcotest.test_case "complete drops pending" `Quick test_complete_drops_pending;
      Alcotest.test_case "malformed histories rejected" `Quick test_operations_malformed;
    ] )
