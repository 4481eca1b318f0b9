(* Diagram rendering, valency-graph export, BL93 covering search. *)
open Ts_model
open Ts_protocols

let run_alternating n budget =
  let proto = Racing.make ~n in
  let inputs = Array.init n (fun p -> Value.int (p mod 2)) in
  Sim.run proto ~inputs ~policy:(Sim.Alternating (0, 1)) ~flips:(fun () -> false) ~budget

let test_diagram_lanes () =
  let o = run_alternating 2 10 in
  let s = Diagram.render ~n:2 o.Sim.trace in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "two lanes in one band" 2 (List.length lines);
  Alcotest.(check bool) "p0 lane present" true
    (List.exists (fun l -> String.length l > 3 && String.sub l 0 3 = "p0 ") lines)

let test_diagram_wrapping () =
  let o = run_alternating 2 100 in
  let s = Diagram.render ~width:10 ~n:2 o.Sim.trace in
  let bands =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 2 && String.sub l 0 1 = "p")
  in
  (* 100 steps at width 10 = 10 bands of 2 lanes *)
  Alcotest.(check int) "bands wrap" 20 (List.length bands)

let test_diagram_empty () =
  Alcotest.(check string) "empty trace" "(empty execution)\n" (Diagram.render ~n:2 [])

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_diagram_cells () =
  let o = run_alternating 2 9 in
  let s = Diagram.render ~n:2 o.Sim.trace in
  Alcotest.(check bool) "read cells appear" true (contains ~needle:"r0" s);
  Alcotest.(check bool) "idle cells appear" true (contains ~needle:"." s)

let test_valgraph_structure () =
  let proto = Racing.make ~n:2 in
  let t = Ts_core.Valency.create proto ~horizon:40 in
  let dot, stats =
    Ts_core.Valgraph.dot t ~inputs:[| Value.int 0; Value.int 1 |] ~pset:(Pset.all 2)
      ~depth:4 ~max_nodes:500
  in
  Alcotest.(check bool) "dot header" true (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "nodes counted" true (stats.Ts_core.Valgraph.nodes > 5);
  Alcotest.(check bool) "edges at least nodes-1" true
    (stats.Ts_core.Valgraph.edges >= stats.Ts_core.Valgraph.nodes - 1);
  (* the initial region of racing-2 with mixed inputs is all bivalent *)
  Alcotest.(check int) "no univalent node this early" 0
    (stats.Ts_core.Valgraph.univalent0 + stats.Ts_core.Valgraph.univalent1);
  Alcotest.(check int) "nothing blocked" 0 stats.Ts_core.Valgraph.blocked

let test_valgraph_univalent_regions_appear () =
  (* deep enough, 0- and 1-univalent configurations both appear *)
  let proto = Racing.make ~n:2 in
  let t = Ts_core.Valency.create proto ~horizon:40 in
  let _, stats =
    Ts_core.Valgraph.dot t ~inputs:[| Value.int 0; Value.int 1 |] ~pset:(Pset.all 2)
      ~depth:12 ~max_nodes:4_000
  in
  Alcotest.(check bool) "0-univalent region" true (stats.Ts_core.Valgraph.univalent0 > 0);
  Alcotest.(check bool) "1-univalent region" true (stats.Ts_core.Valgraph.univalent1 > 0);
  Alcotest.(check bool) "bivalent region" true (stats.Ts_core.Valgraph.bivalent > 0)

let test_valgraph_node_cap () =
  let proto = Racing.make ~n:2 in
  let t = Ts_core.Valency.create proto ~horizon:30 in
  let _, stats =
    Ts_core.Valgraph.dot t ~inputs:[| Value.int 0; Value.int 1 |] ~pset:(Pset.all 2)
      ~depth:30 ~max_nodes:50
  in
  Alcotest.(check bool) "cap respected" true (stats.Ts_core.Valgraph.nodes <= 50)

let test_covering_search_register_locks_cover_n () =
  (* BL93 measured: the register-only locks admit configurations covering
     n distinct registers *)
  List.iter
    (fun (Ts_lecture.Algorithm.Packed alg, expect_at_least) ->
      let r = Ts_lecture.Covering_search.search alg ~max_configs:60_000 in
      Alcotest.(check bool)
        (Printf.sprintf "%s covers >= %d" r.Ts_lecture.Covering_search.algorithm expect_at_least)
        true
        (r.Ts_lecture.Covering_search.best_covered >= expect_at_least);
      Alcotest.(check bool) "exclusion holds" false
        r.Ts_lecture.Covering_search.exclusion_violated)
    [
      Ts_lecture.Algorithm.Packed (Ts_lecture.Peterson.make ~n:2), 2;
      Ts_lecture.Algorithm.Packed (Ts_lecture.Peterson.make ~n:3), 3;
      Ts_lecture.Algorithm.Packed (Ts_lecture.Tournament.make ~n:2), 2;
      Ts_lecture.Algorithm.Packed (Ts_lecture.Tournament.make ~n:3), 3;
    ]

let test_covering_search_swap_covers_one () =
  (* the swap-based lock concentrates everything on one register: the
     covering technique (and hence BL93) has nothing to grab *)
  let r =
    Ts_lecture.Covering_search.search (Ts_lecture.Tas_lock.make ~n:4) ~max_configs:60_000
  in
  Alcotest.(check int) "tas covers exactly 1" 1 r.Ts_lecture.Covering_search.best_covered;
  Alcotest.(check bool) "exhaustive" false r.Ts_lecture.Covering_search.truncated

let test_covering_search_exhaustive_small () =
  let r = Ts_lecture.Covering_search.search (Ts_lecture.Peterson.make ~n:2) ~max_configs:10_000 in
  Alcotest.(check bool) "peterson-2 graph is finite" false r.Ts_lecture.Covering_search.truncated;
  Alcotest.(check bool) "explored something" true (r.Ts_lecture.Covering_search.configs_explored > 20)

let suite =
  ( "extras",
    [
      Alcotest.test_case "diagram: lanes" `Quick test_diagram_lanes;
      Alcotest.test_case "diagram: wrapping" `Quick test_diagram_wrapping;
      Alcotest.test_case "diagram: empty trace" `Quick test_diagram_empty;
      Alcotest.test_case "diagram: cell content" `Quick test_diagram_cells;
      Alcotest.test_case "valgraph: dot structure" `Quick test_valgraph_structure;
      Alcotest.test_case "valgraph: univalent regions" `Slow test_valgraph_univalent_regions_appear;
      Alcotest.test_case "valgraph: node cap" `Quick test_valgraph_node_cap;
      Alcotest.test_case "covering search: register locks cover n" `Slow
        test_covering_search_register_locks_cover_n;
      Alcotest.test_case "covering search: swap lock covers 1" `Quick
        test_covering_search_swap_covers_one;
      Alcotest.test_case "covering search: exhaustive small" `Quick
        test_covering_search_exhaustive_small;
    ] )
