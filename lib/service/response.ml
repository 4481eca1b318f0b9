open Ts_model
open Ts_core
module Json = Ts_analysis.Json
module Explore = Ts_checker.Explore

let rec value_to_json = function
  | Value.Bot -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Bool b -> Json.Bool b
  | Value.Pair (a, b) ->
    Json.Obj [ ("fst", value_to_json a); ("snd", value_to_json b) ]
  | Value.List vs -> Json.List (List.map value_to_json vs)

let values_to_json vs = Json.List (List.map value_to_json vs)
let inputs_to_json inputs = values_to_json (Array.to_list inputs)
let regs_to_json regs = Json.List (List.map (fun r -> Json.Int r) regs)

let breach_to_json = function
  | Budget.Deadline s ->
    Json.Obj [ ("limit", Json.Str "deadline"); ("allowance", Json.Float s) ]
  | Budget.Node_cap n ->
    Json.Obj [ ("limit", Json.Str "nodes"); ("allowance", Json.Int n) ]
  | Budget.Heap_cap w ->
    Json.Obj [ ("limit", Json.Str "heap"); ("allowance", Json.Int w) ]

let verified_to_json = function
  | Ok () -> Json.Bool true
  | Error msg -> Json.Obj [ ("failed", Json.Str msg) ]

(* A complete witness of either engine: the engine's head fields after
   the status, the fields of the shared witness record, the engine's own
   effort counters, then the replay verdict. *)
let complete_to_json head ~space_bound effort ~verified (w : _ Theorem.witness) =
  Json.Obj
    ((("status", Json.Str "complete") :: head)
    @ [
        ("inputs", inputs_to_json w.Theorem.inputs);
        ("schedule_length", Json.Int (List.length w.Theorem.schedule));
        ("registers_written", regs_to_json w.Theorem.registers_written);
        ("space_bound", Json.Int space_bound);
        ("covered_registers", regs_to_json w.Theorem.covered_registers);
        ("fresh_register", Json.Int w.Theorem.fresh_register);
      ]
    @ effort
    @ [ ("verified", verified_to_json verified) ])

let witness_to_json ~horizon_used ~verified (cert : Theorem.certificate) =
  complete_to_json
    [
      ("protocol", Json.Str cert.Theorem.protocol_name);
      ("n", Json.Int cert.Theorem.n);
      ("horizon", Json.Int horizon_used);
    ]
    ~space_bound:(List.length cert.Theorem.registers_written)
    [ ("oracle_searches", Json.Int cert.Theorem.effort.Theorem.oracle_searches) ]
    ~verified cert

let stop_to_json = function
  | Theorem.Out_of_budget b ->
    Json.Obj [ ("reason", Json.Str "budget"); ("breach", breach_to_json b) ]
  | Theorem.Wall msg ->
    Json.Obj [ ("reason", Json.Str "horizon"); ("detail", Json.Str msg) ]

(* A stopped construction of either engine: the engine's head fields
   between the status and the stop, then its own progress counters. *)
let partial_to_json head stop progress =
  Json.Obj
    ((("status", Json.Str "partial") :: head)
    @ [ ("stop", stop_to_json stop); ("progress", Json.Obj progress) ])

let witness_partial_to_json ~horizon_used stop (p : Theorem.progress) =
  partial_to_json [ ("horizon", Json.Int horizon_used) ] stop
    [
      ("horizon", Json.Int p.Theorem.horizon);
      ("searches", Json.Int p.Theorem.searches);
      ("nodes_expanded", Json.Int p.Theorem.nodes_expanded);
    ]

module Revisionist = Ts_revisionist.Revisionist

let revisionist_to_json ~max_solo_used ~verified
    (cert : Revisionist.certificate) =
  complete_to_json
    [
      ("engine", Json.Str "revisionist");
      ("protocol", Json.Str cert.Theorem.protocol_name);
      ("n", Json.Int cert.Theorem.n);
      ("max_solo", Json.Int max_solo_used);
    ]
    ~space_bound:(cert.Theorem.n - 1)
    [
      ("parked",
       Json.List
         (List.map
            (fun (p, r) ->
              Json.Obj [ ("p", Json.Int p); ("register", Json.Int r) ])
            (Revisionist.parked cert)));
      ("revisions", Json.Int cert.Theorem.effort.Revisionist.revisions);
      ("private_steps", Json.Int cert.Theorem.effort.Revisionist.private_steps);
    ]
    ~verified cert

let revisionist_partial_to_json ~max_solo_used stop
    (p : Revisionist.progress) =
  partial_to_json
    [ ("engine", Json.Str "revisionist"); ("max_solo", Json.Int max_solo_used) ]
    stop
    [
      ("max_solo", Json.Int p.Revisionist.max_solo);
      ("parked", Json.Int p.Revisionist.parked);
      ("revisions", Json.Int p.Revisionist.revisions);
      ("private_steps", Json.Int p.Revisionist.private_steps);
    ]

let violation_to_json v =
  let base =
    [
      ("kind", Json.Str (Explore.violation_kind v));
      ("inputs", inputs_to_json (Explore.violation_inputs v));
      ("schedule_length", Json.Int (List.length (Explore.violation_schedule v)));
    ]
  in
  let extra =
    match v with
    | Explore.Agreement_violation { values; _ } ->
      [ ("values", values_to_json values) ]
    | Explore.Validity_violation { value; _ } ->
      [ ("value", value_to_json value) ]
    | Explore.Solo_stuck { pid; _ } -> [ ("pid", Json.Int pid) ]
    | Explore.Crash_stuck { crashed; survivors; _ } ->
      [
        ("crashed", Json.List (List.map (fun p -> Json.Int p) crashed));
        ("survivors", Json.List (List.map (fun p -> Json.Int p) survivors));
      ]
  in
  Json.Obj (base @ extra)

let explore_stats_to_json (s : Explore.stats) =
  Json.Obj
    [
      ("configs_explored", Json.Int s.Explore.configs_explored);
      ("truncated", Json.Bool s.Explore.truncated);
      ("deepest", Json.Int s.Explore.deepest);
      ("table_hits", Json.Int s.Explore.table_hits);
      ("table_misses", Json.Int s.Explore.table_misses);
      ("peak_frontier", Json.Int s.Explore.peak_frontier);
      ("solo_cache_hits", Json.Int s.Explore.solo_cache_hits);
      ("solo_cache_misses", Json.Int s.Explore.solo_cache_misses);
    ]

let explore_to_json ?replay (r : Explore.result) =
  let verdict, violation =
    match r.Explore.verdict with
    | Ok () -> ("clean", Json.Null)
    | Error v -> ("violation", violation_to_json v)
  in
  let replay_field =
    match replay with
    | None -> []
    | Some (Ok ()) -> [ ("replay", Json.Str "confirmed") ]
    | Some (Error msg) ->
      [ ("replay", Json.Obj [ ("failed", Json.Str msg) ]) ]
  in
  Json.Obj
    ([
       ("verdict", Json.Str verdict);
       ("violation", violation);
       ("stats", explore_stats_to_json r.Explore.stats);
       ("stopped",
        match r.Explore.stopped with
        | None -> Json.Null
        | Some b -> breach_to_json b);
       (* always empty since a raising search propagates at every domain
          count; kept because served answers, their digest goldens and
          the benchmark's correctness check all read the field *)
       ("worker_errors", Json.List []);
     ]
    @ replay_field)

let valency_to_json ~inputs ~horizon verdict (s : Valency.stats) =
  let classification =
    match verdict with
    | Valency.Bivalent (w0, w1) ->
      [
        ("class", Json.Str "bivalent");
        ("witness0_length", Json.Int (List.length w0));
        ("witness1_length", Json.Int (List.length w1));
      ]
    | Valency.Univalent (v, w) ->
      [
        ("class", Json.Str "univalent");
        ("value", value_to_json v);
        ("witness_length", Json.Int (List.length w));
      ]
    | Valency.Blocked -> [ ("class", Json.Str "blocked") ]
  in
  Json.Obj
    (classification
    @ [
        ("inputs", inputs_to_json inputs);
        ("horizon", Json.Int horizon);
        ("stats",
         Json.Obj
           [
             ("searches", Json.Int s.Valency.searches);
             ("nodes_expanded", Json.Int s.Valency.nodes_expanded);
             ("memo_hits", Json.Int s.Valency.memo_hits);
             ("memo_misses", Json.Int s.Valency.memo_misses);
             ("peak_frontier", Json.Int s.Valency.peak_frontier);
           ]);
      ])

let store_stats_to_json (s : Ts_store.Store.stats) =
  Json.Obj
    [
      ("records", Json.Int s.Ts_store.Store.records);
      ("bytes", Json.Int s.Ts_store.Store.bytes);
      ("appends", Json.Int s.Ts_store.Store.appends);
      ("recovered", Json.Int s.Ts_store.Store.recovered);
      ("torn_truncations", Json.Int s.Ts_store.Store.torn_truncations);
      ("torn_bytes", Json.Int s.Ts_store.Store.torn_bytes);
      ("recovery_ms", Json.Float s.Ts_store.Store.recovery_ms);
      ("recovery_bytes", Json.Int s.Ts_store.Store.recovery_bytes);
      ("lookups", Json.Int s.Ts_store.Store.lookups);
      ("hits", Json.Int s.Ts_store.Store.hits);
      ("syncs", Json.Int s.Ts_store.Store.syncs);
    ]

let cache_stats_to_json (s : Ts_core.Cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int s.Ts_core.Cache.hits);
      ("misses", Json.Int s.Ts_core.Cache.misses);
      ("evictions", Json.Int s.Ts_core.Cache.evictions);
      ("entries", Json.Int s.Ts_core.Cache.entries);
      ("capacity", Json.Int s.Ts_core.Cache.capacity);
      ("shards", Json.Int s.Ts_core.Cache.shards);
    ]

(* The success envelope, built as bytes: splices an already-serialized
   result body into the compact document without rebuilding (or even
   parsing) it.  The fragments that need care (string escaping, float
   rendering) are delegated to the one Json emitter, so the document is
   what [Json.to_string] would print for the same object. *)
let envelope_raw ~id ~provenance ~cache_key ~elapsed_ms ~result =
  let buf = Buffer.create (String.length result + 112) in
  Buffer.add_string buf "{\"id\":";
  Buffer.add_string buf (string_of_int id);
  Buffer.add_string buf ",\"ok\":true";
  (match provenance with
   | None -> ()
   | Some p ->
     Buffer.add_string buf ",\"provenance\":";
     Buffer.add_string buf (Json.to_string (Json.Str p)));
  (match cache_key with
   | None -> ()
   | Some k ->
     Buffer.add_string buf ",\"cache_key\":";
     Buffer.add_string buf (Json.to_string (Json.Str k)));
  Buffer.add_string buf ",\"elapsed_ms\":";
  Buffer.add_string buf (Json.to_string (Json.Float elapsed_ms));
  Buffer.add_string buf ",\"result\":";
  Buffer.add_string buf result;
  Buffer.add_char buf '}';
  Buffer.contents buf

let error ?retry_after_ms ~id ~code msg =
  Json.Obj
    [
      ("id", match id with None -> Json.Null | Some i -> Json.Int i);
      ("ok", Json.Bool false);
      ("error",
       Json.Obj
         ([ ("code", Json.Str code); ("message", Json.Str msg) ]
         @
         match retry_after_ms with
         | None -> []
         | Some ms -> [ ("retry_after_ms", Json.Int ms) ]));
    ]
