(* --compare BASE... -- NEW...: judge ledger files of a change against
   ledger files of its parent, one row per (workload, end-to-end metric),
   by the bounds in BENCHMARK.json.

   A row is
   - unresolved when either side's spread (interquartile range over
     median) exceeds the metric's bound, unless one side's runs all read
     better than all of the other side's;
   - regressed when NEW's median is worse than BASE's by more than the
     bound;
   - improved when NEW wins at least 9/10 of all (BASE, NEW) run pairs and
     the medians differ by more than BASE's interquartile range;
   - unchanged otherwise.
   The exit code is 1 on any regressed row or any rise in the failed
   fraction of a workload. *)

module Json = Ts_analysis.Json

(* workload -> (metric -> values), (failed, attempted) *)
type side = (string, (string, float list) Hashtbl.t * (int * int)) Hashtbl.t

let read_side files : side =
  let side = Hashtbl.create 8 in
  List.iter
    (fun file ->
      let doc =
        match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
        | Ok d -> d
        | Error msg -> failwith (file ^ ": " ^ msg)
      in
      let int k d = Option.value ~default:0 (Option.bind (Json.member k d) Json.to_int_opt) in
      match Json.member "workloads" doc with
      | Some (Json.List ws) ->
        List.iter
          (fun w ->
            let name =
              match Option.bind (Json.member "name" w) Json.to_str_opt with
              | Some n -> n
              | None -> failwith (file ^ ": workload without a name")
            in
            let values, (f, a) =
              Option.value ~default:(Hashtbl.create 16, (0, 0)) (Hashtbl.find_opt side name)
            in
            (match Json.member "metrics" w with
             | Some (Json.Obj ms) ->
               List.iter
                 (fun (m, v) ->
                   match Option.bind (Json.member "value" v) Json.to_float_opt with
                   | Some x ->
                     Hashtbl.replace values m
                       (x :: Option.value ~default:[] (Hashtbl.find_opt values m))
                   | None -> ())
                 ms
             | _ -> ());
            Hashtbl.replace side name (values, (f + int "failed" w, a + int "attempted" w)))
          ws
      | _ -> failwith (file ^ ": not a ledger (no workloads list)"))
    files;
  side

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let judge (m : Spec.metric) base nw =
  let b = Array.of_list base and n = Array.of_list nw in
  let mb = Stats.median b and mn = Stats.median n in
  let iqr a = Stats.quantile a 0.75 -. Stats.quantile a 0.25 in
  let better x y = if m.Spec.lower_is_better then x < y else x > y in
  let pairs = Array.length b * Array.length n in
  let count p = Array.fold_left (fun acc x -> acc + Array.fold_left (fun acc y -> if p x y then acc + 1 else acc) 0 b) 0 n in
  let wins = count better and losses = count (fun x y -> better y x) in
  let worse = (if m.Spec.lower_is_better then mn -. mb else mb -. mn) /. Float.abs mb in
  let spread = Float.max (iqr b /. Float.abs mb) (iqr n /. Float.abs mn) in
  let verdict =
    if spread > m.Spec.bound && wins < pairs && losses < pairs then Unresolved
    else if worse > m.Spec.bound then Regressed
    else if 10 * wins >= 9 * pairs && Float.abs (mn -. mb) > iqr b then Improved
    else Unchanged
  in
  (verdict, (mb, Stats.quantile b 0.25, Stats.quantile b 0.75), (mn, Stats.quantile n 0.25, Stats.quantile n 0.75), spread)

let run (spec : Spec.t) ~base ~fresh =
  if List.length base < 2 || List.length fresh < 2 then
    failwith "--compare needs at least two ledger files on each side";
  let b = read_side base and n = read_side fresh in
  let bad = ref false in
  Printf.printf "%-14s %-22s %-40s %-40s %8s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "spread" "verdict";
  List.iter
    (fun (w : Workload.t) ->
      match (Hashtbl.find_opt b w.Workload.name, Hashtbl.find_opt n w.Workload.name) with
      | Some (bv, (bf, ba)), Some (nv, (nf, na)) ->
        List.iter
          (fun (m : Spec.metric) ->
            match (Hashtbl.find_opt bv m.Spec.name, Hashtbl.find_opt nv m.Spec.name) with
            | Some xs, Some ys ->
              let v, (mb, b1, b3), (mn, n1, n3), spread = judge m xs ys in
              if v = Regressed then bad := true;
              Printf.printf "%-14s %-22s %-40s %-40s %7.1f%%  %s (bound %.0f%%)\n"
                w.Workload.name m.Spec.name
                (Printf.sprintf "%.4g [%.4g, %.4g] %s" mb b1 b3 m.Spec.unit_)
                (Printf.sprintf "%.4g [%.4g, %.4g] %s" mn n1 n3 m.Spec.unit_)
                (100. *. spread) (verdict_name v) (100. *. m.Spec.bound)
            | _ -> ())
          spec.Spec.end_to_end;
        let frac f a = if a = 0 then 0. else float_of_int f /. float_of_int a in
        let rose = frac nf na > frac bf ba in
        if rose then bad := true;
        Printf.printf "%-14s %-22s %-40s %-40s %8s  %s\n" w.Workload.name "failed_frac"
          (Printf.sprintf "%d/%d" bf ba) (Printf.sprintf "%d/%d" nf na) ""
          (if rose then "regressed" else "unchanged")
      | _ -> ())
    Workload.all;
  if !bad then 1 else 0
