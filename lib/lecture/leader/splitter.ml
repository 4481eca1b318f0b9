open Ts_model

type op = Split

type outcome =
  | Stop
  | Right
  | Down

let outcome_of_value v =
  match Value.to_int v with
  | 0 -> Stop
  | 1 -> Right
  | 2 -> Down
  | _ -> invalid_arg "Splitter.outcome_of_value"

(* Register 0: X (last process to enter); register 1: Y (door closed). *)
type state =
  | Write_x of int
  | Read_y of int
  | Write_y of int
  | Read_x of int
  | Ret of int

let make ~n : (state, op) Impl.t =
  {
    name = "splitter";
    description = "one-shot splitter from two registers";
    num_processes = n;
    num_registers = 2;
    begin_op = (fun ~pid Split -> Write_x pid);
    poised =
      (function
        | Write_x me -> Impl.Write (0, Value.int me)
        | Read_y _ -> Impl.Read 1
        | Write_y _ -> Impl.Write (1, Value.bool true)
        | Read_x _ -> Impl.Read 0
        | Ret r -> Impl.Return (Value.int r));
    on_read =
      (fun st v ->
        match st with
        | Read_y me -> if Value.is_bot v then Write_y me else Ret 1 (* Right *)
        | Read_x me ->
          if Value.equal v (Value.int me) then Ret 0 (* Stop *) else Ret 2 (* Down *)
        | Write_x _ | Write_y _ | Ret _ -> invalid_arg "Splitter.on_read");
    on_write =
      (fun st ->
        match st with
        | Write_x me -> Read_y me
        | Write_y me -> Read_x me
        | Read_y _ | Read_x _ | Ret _ -> invalid_arg "Splitter.on_write");
    pp_op = (fun ppf Split -> Fmt.string ppf "split");
  }
