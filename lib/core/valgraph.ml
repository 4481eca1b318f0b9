open Ts_model

type stats = {
  nodes : int;
  edges : int;
  bivalent : int;
  univalent0 : int;
  univalent1 : int;
  blocked : int;
}

(* DOT edge labels: [p3] for a step of p3, [p3+] / [p3-] for its flip to
   heads / tails *)
let edge_label (e : Execution.event) =
  match e.coin with
  | None -> Printf.sprintf "p%d" e.pid
  | Some true -> Printf.sprintf "p%d+" e.pid
  | Some false -> Printf.sprintf "p%d-" e.pid

let dot t ~inputs ~pset ~depth ~max_nodes =
  Ts_obs.Obs.with_span ~cat:"valency" "valgraph.dot" @@ fun sp ->
  let proto = Valency.protocol t in
  let everyone = Pset.all proto.Protocol.num_processes in
  let cfg0 = Config.initial proto ~inputs in
  let pk = Ckey.packer proto in
  let ids = Ckey.Tbl.create 256 in
  let next_id = ref 0 in
  let id_of cfg =
    let key = Ckey.pack pk cfg in
    match Ckey.Tbl.find_opt ids key with
    | Some i -> i, false
    | None ->
      let i = !next_id in
      incr next_id;
      Ckey.Tbl.add ids key i;
      i, true
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph valency {\n  rankdir=TB;\n  node [fontsize=10];\n";
  let nodes = ref 0 and edges = ref 0 in
  let biv = ref 0 and uni0 = ref 0 and uni1 = ref 0 and blk = ref 0 in
  let emit_node i cfg =
    incr nodes;
    let shape, color, label =
      match Valency.classify t cfg pset with
      | Valency.Bivalent _ ->
        incr biv;
        "ellipse", "khaki", "bi"
      | Valency.Univalent (v, _) ->
        let v = Value.to_int v in
        if v = 0 then incr uni0 else incr uni1;
        "box", (if v = 0 then "lightcoral" else "lightblue"), Printf.sprintf "%d" v
      | Valency.Blocked ->
        incr blk;
        "diamond", "gray", "?"
    in
    let decided =
      match Config.decided_values cfg with
      | [] -> ""
      | vs -> Printf.sprintf "\\ndec %s" (String.concat "," (List.map Value.to_string vs))
    in
    Buffer.add_string buf
      (Printf.sprintf "  c%d [shape=%s,style=filled,fillcolor=%s,label=\"%s%s\"];\n" i
         shape color label decided)
  in
  let q = Queue.create () in
  let i0, _ = id_of cfg0 in
  emit_node i0 cfg0;
  Queue.add (cfg0, i0, 0) q;
  (try
     while not (Queue.is_empty q) do
       let cfg, i, d = Queue.pop q in
       (* every edge is emitted, so no commuting step is skipped *)
       if d < depth then
         Execution.iter_successors proto cfg everyone (fun e cfg' ->
             let j, fresh = id_of cfg' in
             if fresh then begin
               if !nodes >= max_nodes then raise Exit;
               emit_node j cfg';
               Queue.add (cfg', j, d + 1) q
             end;
             incr edges;
             Buffer.add_string buf
               (Printf.sprintf "  c%d -> c%d [label=\"%s\"];\n" i j (edge_label e)))
     done
   with Exit -> ());
  Buffer.add_string buf "}\n";
  Ts_obs.Obs.set_int sp "nodes" !nodes;
  Ts_obs.Obs.set_int sp "edges" !edges;
  ( Buffer.contents buf,
    {
      nodes = !nodes;
      edges = !edges;
      bivalent = !biv;
      univalent0 = !uni0;
      univalent1 = !uni1;
      blocked = !blk;
    } )
