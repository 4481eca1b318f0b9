(* Configurations, stepping, schedules, executions. *)
open Ts_model

(* A tiny deterministic 2-process protocol used as a fixture: p writes its
   input to register p, reads the other register, decides what it read if
   non-bot, else its own input. *)
type tiny =
  | W of int * int  (* me, input *)
  | R of int * int
  | D of Value.t

let tiny : tiny Protocol.t =
  {
    name = "tiny";
    description = "write own register, read the other, decide";
    num_processes = 2;
    num_registers = 2;
    init = (fun ~pid ~input -> W (pid, Value.to_int input));
    poised =
      (function
        | W (me, input) -> Action.Write (me, Value.int input)
        | R (me, _) -> Action.Read (1 - me)
        | D v -> Action.Decide v);
    on_read =
      (fun st v ->
        match st with
        | R (_, input) -> D (if Value.is_bot v then Value.int input else v)
        | _ -> assert false);
    on_write = (function W (me, input) -> R (me, input) | _ -> assert false);
    on_swap = Protocol.no_swap;
    on_flip = Protocol.no_flip;
    pp_state = (fun ppf _ -> Fmt.string ppf "tiny");
    encode = Protocol.Generic;
  }

let inputs01 = [| Value.int 0; Value.int 1 |]

let test_initial () =
  let cfg = Config.initial tiny ~inputs:inputs01 in
  Alcotest.(check bool) "regs are bot" true (Value.is_bot (Config.register cfg 0));
  Alcotest.(check bool) "no decisions" true (Config.decided_values cfg = []);
  Alcotest.check_raises "wrong arity" (Invalid_argument "Config.initial: wrong number of inputs")
    (fun () -> ignore (Config.initial tiny ~inputs:[| Value.int 0 |]))

let test_step_write_read_decide () =
  let cfg = Config.initial tiny ~inputs:inputs01 in
  let cfg, a1 = Config.step tiny cfg 0 ~coin:None in
  Alcotest.(check bool) "write action" true (Action.is_write a1);
  Alcotest.(check int) "reg updated" 0 (Value.to_int (Config.register cfg 0));
  let cfg, a2 = Config.step tiny cfg 0 ~coin:None in
  Alcotest.(check bool) "read action" true (Action.is_read a2);
  let cfg, a3 = Config.step tiny cfg 0 ~coin:None in
  Alcotest.(check bool) "decide action" true (Action.is_decide a3);
  Alcotest.(check bool) "decision recorded" true (Config.has_decided cfg 0 <> None);
  Alcotest.check_raises "stepping decided process"
    (Invalid_argument "Config.step: process has decided") (fun () ->
      ignore (Config.step tiny cfg 0 ~coin:None))

let test_coin_misuse () =
  let cfg = Config.initial tiny ~inputs:inputs01 in
  Alcotest.check_raises "coin on non-flip"
    (Invalid_argument "Config.step: coin supplied to a non-flip step") (fun () ->
      ignore (Config.step tiny cfg 0 ~coin:(Some true)))

let test_covers () =
  let cfg = Config.initial tiny ~inputs:inputs01 in
  Alcotest.(check (option int)) "p0 covers R0" (Some 0) (Config.covers tiny cfg 0);
  Alcotest.(check (option int)) "p1 covers R1" (Some 1) (Config.covers tiny cfg 1);
  Alcotest.(check (list int)) "covered set" [ 0; 1 ]
    (Config.covered_registers tiny cfg (Pset.all 2));
  Alcotest.(check bool) "well spread" true (Config.covering_is_distinct tiny cfg (Pset.all 2));
  let cfg', _ = Config.step tiny cfg 0 ~coin:None in
  Alcotest.(check (option int)) "after write p0 covers nothing" None
    (Config.covers tiny cfg' 0);
  Alcotest.(check bool) "not well spread when someone reads" false
    (Config.covering_is_distinct tiny cfg' (Pset.all 2))

let test_apply_and_trace () =
  let cfg = Config.initial tiny ~inputs:inputs01 in
  let sched = [ Execution.ev 0; Execution.ev 1; Execution.ev 0; Execution.ev 0 ] in
  let cfg', trace = Execution.apply tiny cfg sched in
  Alcotest.(check int) "trace length" 4 (List.length trace);
  Alcotest.(check (list int)) "written" [ 0; 1 ] (Execution.written_registers trace);
  Alcotest.(check (list int)) "accessed" [ 0; 1 ] (Execution.accessed_registers trace);
  Alcotest.(check (list int)) "participants" [ 0; 1 ]
    (Pset.to_list (Execution.participants trace));
  (* p0 read p1's write of 1, so decides 1 *)
  Alcotest.(check (option int)) "p0 decided 1" (Some 1)
    (Option.map Value.to_int (Config.has_decided cfg' 0))

let test_schedule_of_trace_roundtrip () =
  let cfg = Config.initial tiny ~inputs:inputs01 in
  let sched = [ Execution.ev 1; Execution.ev 0; Execution.ev 1; Execution.ev 1 ] in
  let _, trace = Execution.apply tiny cfg sched in
  Alcotest.(check bool) "schedule recovered" true
    (Execution.schedule_of_trace trace = sched);
  let cfg1, _ = Execution.apply tiny cfg sched in
  let cfg2, _ = Execution.apply_trace tiny cfg trace in
  Alcotest.(check bool) "replay equal" true (Config.equal cfg1 cfg2)

let test_solo () =
  let cfg = Config.initial tiny ~inputs:inputs01 in
  let _, trace, decision = Execution.solo tiny cfg 0 ~flips:(fun _ -> true) ~budget:10 in
  Alcotest.(check (option int)) "solo decides own input" (Some 0)
    (Option.map Value.to_int decision);
  Alcotest.(check int) "solo takes 3 steps" 3 (List.length trace);
  let _, _, none = Execution.solo tiny cfg 0 ~flips:(fun _ -> true) ~budget:1 in
  Alcotest.(check bool) "budget respected" true (none = None)

let test_sim_policies () =
  let p = Ts_protocols.Racing.make ~n:3 in
  let inputs = [| Value.int 1; Value.int 1; Value.int 0 |] in
  let solo = Sim.run p ~inputs ~policy:(Sim.Solo 2) ~flips:(fun () -> true) ~budget:5000 in
  Alcotest.(check bool) "solo decides own input" true
    (solo.Sim.decisions = [ 2, Value.int 0 ]);
  let rr = Sim.run p ~inputs ~policy:Sim.Round_robin ~flips:(fun () -> true) ~budget:100_000 in
  Alcotest.(check bool) "round robin all decide" true (List.length rr.Sim.decisions = 3);
  (match Sim.agreement rr with
   | Ok v -> Alcotest.(check bool) "valid" true (Sim.valid ~inputs v)
   | Error _ -> Alcotest.fail "round robin disagreement");
  let rng = Rng.create 99 in
  let rnd = Sim.run p ~inputs ~policy:(Sim.Random rng) ~flips:(fun () -> Rng.bool rng) ~budget:100_000 in
  Alcotest.(check bool) "random all decide" true (not rnd.Sim.ran_out)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  let p = Rng.permutation (Rng.create 7) 10 in
  Alcotest.(check (list int)) "permutation is a permutation" (List.init 10 Fun.id)
    (List.sort compare (Array.to_list p))

let prop_rng_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* The step relation against a test-local expansion: on every catalog
   protocol at n = 2 and 3, for every non-empty member set,
   [Execution.iter_successors] yields the same events in the same order
   (pid ascending, coin true before false) and the same successors.  The
   configurations are those reachable within 6 steps of each binary input
   vector, plus those of one round-robin run from each: racing-rand first
   poises a flip after a counter tie, deeper than 6 steps, and the test
   insists some compared configuration has a flip poised. *)
let local_successors proto cfg ps =
  List.concat_map
    (fun p ->
      match Config.poised proto cfg p with
      | None -> []
      | Some Action.Flip ->
        List.map
          (fun b -> (Execution.flip p b, fst (Config.step proto cfg p ~coin:(Some b))))
          [ true; false ]
      | Some _ -> [ (Execution.ev p, fst (Config.step proto cfg p ~coin:None)) ])
    (Pset.to_list ps)

let test_iter_successors_contract () =
  let compared = ref 0 and flips = ref 0 in
  let check_instance name (Protocol.Packed proto) =
    let n = proto.Protocol.num_processes in
    let pk = Ckey.packer proto in
    let attempt f = match f () with l -> Ok l | exception e -> Error (Printexc.to_string e) in
    let keyed = Result.map (List.map (fun (e, c) -> (e, Ckey.to_hex (Ckey.pack pk c)))) in
    let iterated cfg ps () =
      let acc = ref [] in
      Execution.iter_successors proto cfg ps (fun e c -> acc := (e, c) :: !acc);
      List.rev !acc
    in
    let sets =
      List.init ((1 lsl n) - 1) (fun m ->
          Pset.filter (fun p -> (m + 1) land (1 lsl p) <> 0) (Pset.all n))
    in
    let flipping cfg p =
      match Config.poised proto cfg p with Some Action.Flip -> true | _ -> false
    in
    let compare_at cfg =
      if List.exists (flipping cfg) (List.init n Fun.id) then incr flips;
      List.iter
        (fun ps ->
          incr compared;
          if keyed (attempt (fun () -> local_successors proto cfg ps))
             <> keyed (attempt (iterated cfg ps))
          then
            Alcotest.failf "%s: iter_successors differs from the local expansion for %a" name
              Pset.pp ps)
        sets
    in
    let inputs_list =
      List.init (1 lsl n) (fun m -> Array.init n (fun p -> Value.int ((m lsr p) land 1)))
    in
    let initial inputs = try Some (Config.initial proto ~inputs) with Invalid_argument _ -> None in
    let visited = Ckey.Tbl.create 256 in
    let q = Queue.create () in
    let add cfg depth =
      let k = Ckey.pack pk cfg in
      if not (Ckey.Tbl.mem visited k) then begin
        Ckey.Tbl.replace visited k ();
        Queue.add (cfg, depth) q
      end
    in
    List.iter (fun inputs -> Option.iter (fun c -> add c 0) (initial inputs)) inputs_list;
    while not (Queue.is_empty q) do
      let cfg, depth = Queue.pop q in
      compare_at cfg;
      if depth < 6 then
        match local_successors proto cfg (Pset.all n) with
        | succs -> List.iter (fun (_, c) -> add c (depth + 1)) succs
        | exception _ -> ()
    done;
    (* one round-robin run per input vector, heads on every flip *)
    let rec walk cfg steps p =
      let next = (p + 1) mod n in
      if steps > 0 then
        if Config.has_decided cfg p <> None then walk cfg (steps - 1) next
        else begin
          compare_at cfg;
          let coin = if flipping cfg p then Some true else None in
          match Config.step proto cfg p ~coin with
          | cfg', _ -> walk cfg' (steps - 1) next
          | exception _ -> ()
        end
    in
    List.iter (fun inputs -> Option.iter (fun c -> walk c 200 0) (initial inputs)) inputs_list
  in
  List.iter
    (fun name ->
      List.iter
        (fun n ->
          match Ts_protocols.Catalog.find name ~n with
          | Ok packed -> check_instance (Printf.sprintf "%s-%d" name n) packed
          | Error _ -> ())
        [ 2; 3 ])
    (Ts_protocols.Catalog.names ());
  Alcotest.(check bool) "configurations compared" true (!compared > 1000);
  Alcotest.(check bool) "some compared configuration poises a flip" true (!flips > 0)

(* The search kernel packs a key per successor, so packing may allocate
   the key itself (its digest string and record) and nothing else, and a
   varint into a grown buffer allocates nothing.  A whole search is held
   to about 170 words per node. *)
let test_kernel_allocation () =
  let proto = Ts_protocols.Racing.make ~n:3 in
  let pk = Ckey.packer proto in
  let i0 = Config.initial proto ~inputs:[| Value.int 0; Value.int 1; Value.int 0 |] in
  (* the first 256 configurations of the breadth-first search from [i0] *)
  let visited = Ckey.Tbl.create 1024 and q = Queue.create () in
  let cfgs = Array.make 256 i0 and taken = ref 0 in
  Ckey.Tbl.add visited (Ckey.pack pk i0) ();
  Queue.add i0 q;
  while !taken < Array.length cfgs && not (Queue.is_empty q) do
    let cfg = Queue.pop q in
    cfgs.(!taken) <- cfg;
    incr taken;
    Execution.iter_successors proto cfg (Pset.all 3) (fun _ c ->
        let k = Ckey.pack pk c in
        if not (Ckey.Tbl.mem visited k) then begin
          Ckey.Tbl.add visited k ();
          Queue.add c q
        end)
  done;
  Alcotest.(check int) "256 configurations reached" 256 !taken;
  let before = Gc.minor_words () in
  for i = 0 to Array.length cfgs - 1 do
    ignore (Sys.opaque_identity (Ckey.pack pk cfgs.(i)))
  done;
  let per_pack = (Gc.minor_words () -. before) /. float (Array.length cfgs) in
  Alcotest.(check bool)
    (Printf.sprintf "Ckey.pack allocates at most 12 words per call (%.1f)" per_pack)
    true (per_pack <= 12.0);
  let buf = Buffer.create 64 in
  let before = Gc.minor_words () in
  Value.add_varint buf 8192;
  Value.add_varint buf (-65);
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "two varints allocate nothing (%.0f words)" delta)
    true (delta = 0.0);
  (* one whole search: the joint BFS behind [classify] over 17,391 nodes *)
  let t = Ts_core.Valency.create proto ~horizon:30 in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Ts_core.Valency.classify t i0 (Pset.all 3)));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "racing-3 classify allocates at most 3,000,000 words (%.0f)" words)
    true (words <= 3_000_000.0)

let suite =
  ( "model",
    [
      Alcotest.test_case "initial configuration" `Quick test_initial;
      Alcotest.test_case "step write/read/decide" `Quick test_step_write_read_decide;
      Alcotest.test_case "coin misuse rejected" `Quick test_coin_misuse;
      Alcotest.test_case "covering detection" `Quick test_covers;
      Alcotest.test_case "apply and trace accounting" `Quick test_apply_and_trace;
      Alcotest.test_case "schedule/trace round trip" `Quick test_schedule_of_trace_roundtrip;
      Alcotest.test_case "solo runs" `Quick test_solo;
      Alcotest.test_case "sim policies" `Quick test_sim_policies;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      QCheck_alcotest.to_alcotest prop_rng_bounds;
      Alcotest.test_case "step relation: iter_successors contract (catalog, n = 2, 3)" `Quick
        test_iter_successors_contract;
      Alcotest.test_case "search kernel allocation: packing, varints, classify" `Quick
        test_kernel_allocation;
    ] )
