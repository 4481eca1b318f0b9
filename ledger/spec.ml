(* BENCHMARK.json, the one list of metric names, units, directions and
   regression bounds: the run mode prints exactly these metrics and the
   compare mode judges by these bounds. *)

module Json = Ts_analysis.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;  (** allowed relative worsening; 0 for per-layer metrics *)
}

type t = { end_to_end : metric list; per_layer : metric list }

let load path =
  let doc =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error msg -> failwith (path ^ ": " ^ msg)
  in
  let metrics section =
    match Json.member section doc with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          let str k = Option.bind (Json.member k m) Json.to_str_opt in
          match (str "name", str "unit", str "better") with
          | Some name, Some unit_, Some better ->
            {
              name;
              unit_;
              lower_is_better = better = "lower";
              bound =
                Option.value ~default:0. (Option.bind (Json.member "bound" m) Json.to_float_opt);
            }
          | _ -> failwith (path ^ ": malformed metric in " ^ section))
        l
    | _ -> failwith (path ^ ": no " ^ section ^ " list")
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }
