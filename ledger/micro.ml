(* Engine micro rows, timed with bechamel (OLS estimate of ns per call).

   Six rows repeat closures of bench/main.exe's table rows, so the ledger
   follows the same engine timings; three rows time the per-node
   primitives of a search (Config.step, Ckey.pack, Valency.successors_within)
   on configurations a racing-3 search visits, so the cost of one node is
   known by layer. *)

open Bechamel
open Ts_model
open Ts_core
open Ts_protocols

let racing3 () = Racing.make ~n:3
let inputs3 = [| Value.int 0; Value.int 1; Value.int 0 |]

(* The first [count] distinct configurations of a breadth-first walk from
   the canonical racing-3 initial configuration. *)
let racing3_configs count =
  let proto = racing3 () in
  let pk = Ckey.packer proto in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let out = ref [] in
  let visit cfg =
    let k = Ckey.to_raw (Ckey.pack pk cfg) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      Queue.push cfg queue
    end
  in
  visit (Config.initial proto ~inputs:inputs3);
  while List.length !out < count && not (Queue.is_empty queue) do
    let cfg = Queue.pop queue in
    out := cfg :: !out;
    List.iter (fun (_, c) -> visit c) (Valency.successors_within proto cfg (Pset.all 3))
  done;
  (proto, Array.of_list (List.rev !out))

(* A closure applying [f] to the next element of [xs] on each call. *)
let cycling xs f =
  let i = ref 0 in
  fun () ->
    let x = xs.(!i) in
    i := (!i + 1) mod Array.length xs;
    ignore (Sys.opaque_identity (f x))

(* (row name, metric name, unit) *)
let rows =
  [
    ("config-step-racing3", "micro.config_step_ns", "ns");
    ("ckey-pack-racing3", "micro.ckey_pack_ns", "ns");
    ("valency-successors-racing3", "micro.valency_successors_ns", "ns");
    ("e1-theorem1-racing2", "micro.e1_theorem1_racing2_us", "us");
    ("e5-lemma1-racing3", "micro.e5_lemma1_racing3_ms", "ms");
    ("e6-lemma4-racing3", "micro.e6_lemma4_racing3_ms", "ms");
    ("e14-explore-broken", "micro.e14_explore_broken_us", "us");
    ("e24-cert-build-racing2", "micro.e24_cert_build_us", "us");
    ("e26-revisionist-racing2", "micro.e26_revisionist_racing2_us", "us");
  ]

let per_ns = function "us" -> 1e3 | "ms" -> 1e6 | _ -> 1.

let tests () =
  let proto, configs = racing3_configs 256 in
  let pk = Ckey.packer proto in
  let poised =
    Array.to_list configs
    |> List.concat_map (fun cfg ->
           List.filter_map
             (fun p -> Option.map (fun _ -> (cfg, p)) (Config.poised proto cfg p))
             [ 0; 1; 2 ])
    |> Array.of_list
  in
  let stage name f = Test.make ~name (Staged.stage f) in
  [
    stage "config-step-racing3"
      (cycling poised (fun (cfg, p) -> Config.step proto cfg p ~coin:None));
    stage "ckey-pack-racing3" (cycling configs (Ckey.pack pk));
    stage "valency-successors-racing3"
      (cycling configs (fun cfg -> Valency.successors_within proto cfg (Pset.all 3)));
    stage "e1-theorem1-racing2" (fun () ->
        let t = Valency.create (Racing.make ~n:2) ~horizon:40 in
        ignore (Theorem.theorem1 t));
    stage "e5-lemma1-racing3" (fun () ->
        let proto = racing3 () in
        let t = Valency.create proto ~horizon:60 in
        ignore (Lemmas.lemma1 t (Config.initial proto ~inputs:inputs3) (Pset.all 3)));
    stage "e6-lemma4-racing3" (fun () ->
        let proto = racing3 () in
        let t = Valency.create proto ~horizon:60 in
        ignore (Theorem.lemma4 t (Config.initial proto ~inputs:inputs3) (Pset.all 3)));
    stage "e14-explore-broken" (fun () ->
        ignore
          (Ts_checker.Explore.check_consensus (Broken.last_write_wins ~n:2)
             ~inputs_list:(Ts_checker.Explore.binary_inputs 2) ~max_configs:10_000
             ~max_depth:30 ~solo_budget:50 ~check_solo:false));
    (let proto = Racing.make ~n:2 in
     let thm = Theorem.theorem1 (Valency.create proto ~horizon:40) in
     stage "e24-cert-build-racing2" (fun () -> ignore (Ts_cert.Cert.of_theorem proto thm)));
    stage "e26-revisionist-racing2" (fun () ->
        let module R = Ts_revisionist.Revisionist in
        match R.construct (Racing.make ~n:2) with
        | R.Complete _ -> ()
        | R.Partial _ -> failwith "revisionist stopped on racing n=2");
  ]

(* [run ()] is every row as (metric name, unit, value). *)
let run () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg [ clock ] (Test.make_grouped ~name:"" ~fmt:"%s%s" (tests ())) in
  let estimates = Analyze.all ols clock raw in
  List.map
    (fun (row, metric, unit_) ->
      let ns =
        match Option.bind (Hashtbl.find_opt estimates row) Analyze.OLS.estimates with
        | Some [ est ] -> est
        | _ -> nan
      in
      (metric, unit_, ns /. per_ns unit_))
    rows
