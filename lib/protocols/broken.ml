open Ts_model

type state =
  | Lww of { input : int; stage : int }  (* 0 write, 1 read, 2 decide v *)
  | Lww_done of int
  | Max of { me : int; n : int; pref : int; step : int; seen : int list }
  | Max_write of { me : int; n : int; pref : int; target : int }
  | Max_decide of int
  | Const of int
  | Spin
  | Wait of { me : int; input : int }
  | Wait_scan of { me : int; n : int; input : int; pos : int; best : int }
  | Wait_decide of int
  | Rogue of { input : int; stage : int }  (* 0: stray write, 1: decide *)
  | Scribble of { me : int; n : int; input : int; announced : bool }

let pp_state ppf = function
  | Lww { input; stage } -> Fmt.pf ppf "lww(%d,@%d)" input stage
  | Lww_done v -> Fmt.pf ppf "lww-done(%d)" v
  | Max { pref; step; _ } -> Fmt.pf ppf "max(pref=%d,@%d)" pref step
  | Max_write { pref; target; _ } -> Fmt.pf ppf "max-w(%d->R%d)" pref target
  | Max_decide v -> Fmt.pf ppf "max-d(%d)" v
  | Const v -> Fmt.pf ppf "const(%d)" v
  | Spin -> Fmt.string ppf "spin"
  | Wait { input; _ } -> Fmt.pf ppf "wait(%d)" input
  | Wait_scan { pos; best; _ } -> Fmt.pf ppf "wait-scan(@%d,best=%d)" pos best
  | Wait_decide v -> Fmt.pf ppf "wait-d(%d)" v
  | Rogue { input; stage } -> Fmt.pf ppf "rogue(%d,@%d)" input stage
  | Scribble { me; announced; _ } ->
    Fmt.pf ppf "scribble(p%d,%s)" me (if announced then "deciding" else "writing")

let encode_state buf = function
  | Lww { input; stage } ->
    Buffer.add_char buf 'L';
    Value.add_varint buf input;
    Value.add_varint buf stage
  | Lww_done v ->
    Buffer.add_char buf 'l';
    Value.add_varint buf v
  | Max { me; n = _; pref; step; seen } ->
    Buffer.add_char buf 'M';
    Value.add_varint buf me;
    Value.add_varint buf pref;
    Value.add_varint buf step;
    Value.add_varint buf (List.length seen);
    List.iter (Value.add_varint buf) seen
  | Max_write { me; n = _; pref; target } ->
    Buffer.add_char buf 'W';
    Value.add_varint buf me;
    Value.add_varint buf pref;
    Value.add_varint buf target
  | Max_decide v ->
    Buffer.add_char buf 'm';
    Value.add_varint buf v
  | Const v ->
    Buffer.add_char buf 'C';
    Value.add_varint buf v
  | Spin -> Buffer.add_char buf 'Z'
  | Wait { me; input } ->
    Buffer.add_char buf 'A';
    Value.add_varint buf me;
    Value.add_varint buf input
  | Wait_scan { me; n = _; input; pos; best } ->
    Buffer.add_char buf 'S';
    Value.add_varint buf me;
    Value.add_varint buf input;
    Value.add_varint buf pos;
    Value.add_varint buf best
  | Wait_decide v ->
    Buffer.add_char buf 'D';
    Value.add_varint buf v
  | Rogue { input; stage } ->
    Buffer.add_char buf 'R';
    Value.add_varint buf input;
    Value.add_varint buf stage
  | Scribble { me; n = _; input; announced } ->
    Buffer.add_char buf 'B';
    Value.add_varint buf me;
    Value.add_varint buf input;
    Buffer.add_char buf (if announced then '1' else '0')

let base ~name ~description ~n ~regs ~init ~poised ~on_read ~on_write :
    state Protocol.t =
  {
    name;
    description;
    num_processes = n;
    num_registers = regs;
    init;
    poised;
    on_read;
    on_write;
    on_swap = Protocol.no_swap;
    on_flip = Protocol.no_flip;
    pp_state;
    encode = Protocol.Packed encode_state;
  }

let last_write_wins ~n =
  base ~name:(Printf.sprintf "broken-lww-%d" n)
    ~description:"write input to R0, decide what a later read returns" ~n
    ~regs:1
    ~init:(fun ~pid:_ ~input -> Lww { input = Value.to_int input; stage = 0 })
    ~poised:(function
      | Lww { input; stage = 0 } -> Action.Write (0, Value.int input)
      | Lww { stage = 1; _ } -> Action.Read 0
      | Lww_done v -> Action.Decide (Value.int v)
      | _ -> assert false)
    ~on_read:(fun st v ->
      match st with
      | Lww { stage = 1; _ } -> Lww_done (Value.to_int v)
      | _ -> assert false)
    ~on_write:(function
      | Lww r -> Lww { r with stage = 1 }
      | _ -> assert false)

let naive_max ~n =
  let scan me n pref = Max { me; n; pref; step = 0; seen = [] } in
  base ~name:(Printf.sprintf "broken-max-%d" n)
    ~description:"roundless max-racing: decide on unanimous scan" ~n ~regs:n
    ~init:(fun ~pid ~input -> scan pid n (Value.to_int input))
    ~poised:(function
      | Max { step; _ } -> Action.Read step
      | Max_write { target; pref; _ } -> Action.Write (target, Value.int pref)
      | Max_decide v -> Action.Decide (Value.int v)
      | _ -> assert false)
    ~on_read:(fun st v ->
      match st with
      | Max ({ me; n; pref; step; seen } as r) ->
        let c = match v with Value.Bot -> -1 | v -> Value.to_int v in
        let seen = seen @ [ c ] in
        if step < n - 1 then Max { r with step = step + 1; seen }
        else if List.for_all (fun x -> x = pref) seen then Max_decide pref
        else
          let pref = List.fold_left max pref seen in
          let target =
            match
              List.find_index (fun x -> x <> pref) seen
            with
            | Some i -> i
            | None -> 0
          in
          Max_write { me; n; pref; target }
      | _ -> assert false)
    ~on_write:(function
      | Max_write { me; n; pref; _ } -> scan me n pref
      | _ -> assert false)

let oblivious_seven ~n =
  base ~name:(Printf.sprintf "broken-const-%d" n)
    ~description:"decides 7 whatever the inputs" ~n ~regs:1
    ~init:(fun ~pid:_ ~input:_ -> Const 7)
    ~poised:(function Const v -> Action.Decide (Value.int v) | _ -> assert false)
    ~on_read:(fun _ _ -> assert false)
    ~on_write:(fun _ -> assert false)

let wait_for_all ~n =
  base ~name:(Printf.sprintf "broken-wait-%d" n)
    ~description:"announce input, spin until all slots filled, decide max" ~n
    ~regs:n
    ~init:(fun ~pid ~input -> Wait { me = pid; input = Value.to_int input })
    ~poised:(function
      | Wait { me; input } -> Action.Write (me, Value.int input)
      | Wait_scan { pos; _ } -> Action.Read pos
      | Wait_decide v -> Action.Decide (Value.int v)
      | _ -> assert false)
    ~on_read:(fun st v ->
      match st with
      | Wait_scan ({ me = _; n; input; pos; best } as r) ->
        (match v with
         | Value.Bot ->
           (* someone hasn't announced yet: restart the scan *)
           Wait_scan { r with pos = 0; best = input }
         | v ->
           let best = max best (Value.to_int v) in
           if pos = n - 1 then Wait_decide best
           else Wait_scan { r with pos = pos + 1; best })
      | _ -> assert false)
    ~on_write:(function
      | Wait { me; input } -> Wait_scan { me; n; input; pos = 0; best = input }
      | _ -> assert false)

let rogue_writer ~n =
  base ~name:(Printf.sprintf "broken-rogue-%d" n)
    ~description:"declares 1 register but writes register 1 (out of range)" ~n
    ~regs:1
    ~init:(fun ~pid:_ ~input -> Rogue { input = Value.to_int input; stage = 0 })
    ~poised:(function
      | Rogue { input; stage = 0 } -> Action.Write (1, Value.int input)
      | Rogue { input; _ } -> Action.Decide (Value.int input)
      | _ -> assert false)
    ~on_read:(fun _ _ -> assert false)
    ~on_write:(function
      | Rogue r -> Rogue { r with stage = 1 }
      | _ -> assert false)

(* The crosscheck layer's planted divergence: each process announces its
   input in its own register, then decides the COMPLEMENT of it.  Every
   run terminates (so the static lint passes and both engines get to
   step it), and the revisionist engine happily parks every process on
   its own fresh announcing write and claims the n-1 bound — but this is
   not a consensus protocol at all: a solo run of p decides 1 - input,
   so the Lemmas engine correctly refuses at Proposition 2 (p cannot
   decide its own input solo) and the two engines must disagree.
   [tightspace analyze] is required to catch exactly this. *)
let scribbler ~n =
  base ~name:(Printf.sprintf "broken-scribbler-%d" n)
    ~description:"announce input, decide its complement" ~n ~regs:n
    ~init:(fun ~pid ~input ->
      Scribble { me = pid; n; input = Value.to_int input; announced = false })
    ~poised:(function
      | Scribble { me; input; announced = false; _ } ->
        Action.Write (me, Value.int input)
      | Scribble { input; announced = true; _ } ->
        Action.Decide (Value.int (1 - input))
      | _ -> assert false)
    ~on_read:(fun _ _ -> assert false)
    ~on_write:(function
      | Scribble r -> Scribble { r with announced = true }
      | _ -> assert false)

let insomniac ~n =
  base ~name:(Printf.sprintf "broken-spin-%d" n)
    ~description:"reads R0 forever, never decides" ~n ~regs:1
    ~init:(fun ~pid:_ ~input:_ -> Spin)
    ~poised:(function Spin -> Action.Read 0 | _ -> assert false)
    ~on_read:(fun st _ -> st)
    ~on_write:(fun _ -> assert false)
