open Ts_model

let covers proto cfg p =
  match Config.poised proto cfg p with
  | Some a -> Action.written_register a
  | None -> None

let covered_set proto cfg r_set =
  Pset.fold
    (fun p acc -> match covers proto cfg p with Some r -> r :: acc | None -> acc)
    r_set []
  |> List.sort_uniq Int.compare

let is_covering proto cfg r_set =
  Pset.for_all (fun p -> Option.is_some (covers proto cfg p)) r_set

let well_spread proto cfg r_set =
  is_covering proto cfg r_set
  && List.length (covered_set proto cfg r_set) = Pset.cardinal r_set

let block_write r_set = List.map Execution.ev (Pset.to_list r_set)
