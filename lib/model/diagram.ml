let cell_of_step (s : Execution.step_record) =
  match s.Execution.action with
  | Action.Read r -> Printf.sprintf "r%d" r
  | Action.Write (r, _) -> Printf.sprintf "w%d" r
  | Action.Swap (r, _) -> Printf.sprintf "x%d" r
  | Action.Flip -> (match s.Execution.coin_used with Some true -> "f+" | _ -> "f-")
  | Action.Decide _ -> "D!"

let render ?(width = 24) ~n trace =
  let steps = Array.of_list trace in
  let total = Array.length steps in
  let cellw =
    Array.fold_left (fun acc s -> max acc (String.length (cell_of_step s))) 1 steps
  in
  let pad s = s ^ String.make (max 0 (cellw - String.length s)) ' ' in
  let buf = Buffer.create 256 in
  let band lo hi =
    for p = 0 to n - 1 do
      Buffer.add_string buf (Printf.sprintf "p%-2d|" p);
      for i = lo to hi - 1 do
        let s = steps.(i) in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad (if s.Execution.actor = p then cell_of_step s else "."))
      done;
      Buffer.add_char buf '\n'
    done
  in
  let rec bands lo =
    if lo < total then begin
      if lo > 0 then Buffer.add_char buf '\n';
      band lo (min total (lo + width));
      bands (lo + width)
    end
  in
  if total = 0 then "(empty execution)\n" else (bands 0; Buffer.contents buf)
