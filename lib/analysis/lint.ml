open Ts_model

type claims = {
  binary_decides : bool;
  may_swap : bool;
  may_flip : bool;
}

type summary = {
  configs : int;
  truncated : bool;
  max_register : int;
  registers_touched : int;
  reads : int;
  writes : int;
  swaps : int;
  flips : int;
  decides : int;
  decide_reachable : bool;
}

let report = Finding.Sink.report
let findings = Finding.Sink.findings
let is_binary v = Value.equal v (Value.int 0) || Value.equal v (Value.int 1)

let run ?(max_configs = 4_000) ?(max_depth = 25) claims proto ~inputs_list =
  let n = proto.Protocol.num_processes in
  let nregs = proto.Protocol.num_registers in
  let snk = Finding.Sink.create ~protocol:proto.Protocol.name ~pass:"lint" in
  let pk = Ckey.packer proto in
  let visited = Ckey.Tbl.create 256 in
  let regs_touched = Hashtbl.create 16 in
  let max_reg = ref (-1) in
  let reads = ref 0 and writes = ref 0 and swaps = ref 0 in
  let flips = ref 0 and decides = ref 0 in
  let explored = ref 0 in
  let truncated = ref false in
  let touch r =
    Hashtbl.replace regs_touched r ();
    if r > !max_reg then max_reg := r
  in
  let in_range r = r >= 0 && r < nregs in
  (* Examine the action process [p] is poised to take; [true] iff stepping
     it is safe (the footprint is legal, so the engine cannot fault). *)
  let examine_action p act =
    (match Action.accessed_register act with
     | Some r -> touch r
     | None -> ());
    match act with
    | Action.Read r ->
      incr reads;
      if in_range r then true
      else begin
        report snk ~code:"register-out-of-range" Finding.Error
          (Printf.sprintf "p%d poised to read register %d outside 0..%d" p r (nregs - 1));
        false
      end
    | Action.Write (r, _) ->
      incr writes;
      if in_range r then true
      else begin
        report snk ~code:"register-out-of-range" Finding.Error
          (Printf.sprintf "p%d poised to write register %d outside 0..%d" p r (nregs - 1));
        false
      end
    | Action.Swap (r, _) ->
      incr swaps;
      if not claims.may_swap then
        report snk ~code:"primitive-outside-model" Finding.Error
          (Printf.sprintf
             "p%d poised to swap register %d but the declared model is read/write only"
             p r);
      if in_range r then claims.may_swap
      else begin
        report snk ~code:"register-out-of-range" Finding.Error
          (Printf.sprintf "p%d poised to swap register %d outside 0..%d" p r (nregs - 1));
        false
      end
    | Action.Flip ->
      incr flips;
      if not claims.may_flip then begin
        report snk ~code:"undeclared-flip" Finding.Error
          (Printf.sprintf "p%d poised to flip a coin but the protocol claims determinism" p);
        false
      end
      else true
    | Action.Decide v ->
      incr decides;
      if claims.binary_decides && not (is_binary v) then
        report snk ~code:"nonbinary-decide" Finding.Error
          (Printf.sprintf "p%d poised to decide %s outside the binary domain {0,1}" p
             (Value.to_string v));
      true
  in
  (* One shared visited table across input vectors: the footprint is a
     property of the whole reachable space, and vectors overlap. *)
  let q = Queue.create () in
  List.iter
    (fun inputs ->
      match Config.initial proto ~inputs with
      | cfg0 ->
        let k = Ckey.pack pk cfg0 in
        if not (Ckey.Tbl.mem visited k) then begin
          Ckey.Tbl.add visited k ();
          Queue.add (cfg0, 0) q
        end
      | exception e ->
        report snk ~code:"transition-raised" Finding.Error
          (Printf.sprintf "init raised on inputs [%s]: %s"
             (String.concat ";" (Array.to_list (Array.map Value.to_string inputs)))
             (Printexc.to_string e)))
    inputs_list;
  while not (Queue.is_empty q) do
    let cfg, depth = Queue.pop q in
    incr explored;
    if depth >= max_depth || !explored >= max_configs then truncated := true
    else
      for p = 0 to n - 1 do
        match Config.poised proto cfg p with
        | None -> ()
        | Some act ->
          let safe = examine_action p act in
          if safe then begin
            List.iter
              (fun coin ->
                match Config.step proto cfg p ~coin with
                | cfg', _ ->
                  let k = Ckey.pack pk cfg' in
                  if not (Ckey.Tbl.mem visited k) then begin
                    Ckey.Tbl.add visited k ();
                    Queue.add (cfg', depth + 1) q
                  end
                | exception e ->
                  report snk ~code:"transition-raised" Finding.Error
                    (Printf.sprintf "p%d's transition raised on a reachable state: %s" p
                       (Printexc.to_string e)))
              (Execution.coins act)
          end
        | exception e ->
          report snk ~code:"transition-raised" Finding.Error
            (Printf.sprintf "poised raised for p%d on a reachable state: %s" p
               (Printexc.to_string e))
      done
  done;
  if !decides = 0 then
    if !truncated then
      report snk ~code:"no-decision-within-bounds" Finding.Warning
        "no reachable configuration decides within the explored bounds"
    else
      report snk ~code:"decision-unreachable" Finding.Error
        "no reachable configuration ever decides: termination is impossible \
         (the enumeration was exhaustive)";
  if claims.may_flip && !flips = 0 then
    report snk ~code:"flips-unexercised" Finding.Info
      "protocol declares coin flips but never reached a flip";
  if claims.may_swap && !swaps = 0 then
    report snk ~code:"swaps-unexercised" Finding.Info
      "protocol declares the historyless model but never reached a swap";
  if !writes = 0 && !swaps = 0 then
    report snk ~code:"write-free" Finding.Info
      "protocol never writes shared memory within the explored bounds";
  ( findings snk,
    {
      configs = !explored;
      truncated = !truncated;
      max_register = !max_reg;
      registers_touched = Hashtbl.length regs_touched;
      reads = !reads;
      writes = !writes;
      swaps = !swaps;
      flips = !flips;
      decides = !decides;
      decide_reachable = !decides > 0;
    } )

let summary_to_json s =
  Json.Obj
    [
      "configs", Json.Int s.configs;
      "truncated", Json.Bool s.truncated;
      "max_register", Json.Int s.max_register;
      "registers_touched", Json.Int s.registers_touched;
      "reads", Json.Int s.reads;
      "writes", Json.Int s.writes;
      "swaps", Json.Int s.swaps;
      "flips", Json.Int s.flips;
      "decides", Json.Int s.decides;
      "decide_reachable", Json.Bool s.decide_reachable;
    ]

let pp_summary ppf s =
  Fmt.pf ppf
    "%d configs%s; regs touched %d (max R%d); actions r/w/s/f/d = %d/%d/%d/%d/%d"
    s.configs
    (if s.truncated then " (truncated)" else "")
    s.registers_touched s.max_register s.reads s.writes s.swaps s.flips s.decides
