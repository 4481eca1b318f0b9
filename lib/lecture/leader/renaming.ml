open Ts_model

type op = Rename

let name_of ~row ~diag = (diag * (diag + 1) / 2) + row
let name_space n = n * (n + 1) / 2

(* Splitter at grid position (row, diag) owns registers base, base+1. *)
let base ~row ~diag = 2 * name_of ~row ~diag

type phase =
  | Write_x
  | Read_y
  | Write_y
  | Read_x
  | Ret of int

type state = {
  me : int;
  n : int;
  row : int;
  diag : int;
  phase : phase;
}

let move st ~down =
  let row = if down then st.row + 1 else st.row in
  let diag = st.diag + 1 in
  if diag >= st.n then
    invalid_arg "Renaming: fell off the grid (more than n processes?)"
  else { st with row; diag; phase = Write_x }

let make ~n : (state, op) Impl.t =
  if n < 1 then invalid_arg "Renaming.make: n >= 1";
  {
    name = Printf.sprintf "ma-renaming-%d" n;
    description = "Moir-Anderson one-shot renaming from a splitter grid";
    num_processes = n;
    num_registers = 2 * name_space n;
    begin_op = (fun ~pid Rename -> { me = pid; n; row = 0; diag = 0; phase = Write_x });
    poised =
      (fun st ->
        let b = base ~row:st.row ~diag:st.diag in
        match st.phase with
        | Write_x -> Impl.Write (b, Value.int st.me)
        | Read_y -> Impl.Read (b + 1)
        | Write_y -> Impl.Write (b + 1, Value.bool true)
        | Read_x -> Impl.Read b
        | Ret name -> Impl.Return (Value.int name));
    on_read =
      (fun st v ->
        match st.phase with
        | Read_y ->
          if Value.is_bot v then { st with phase = Write_y } else move st ~down:false
        | Read_x ->
          if Value.equal v (Value.int st.me) then
            { st with phase = Ret (name_of ~row:st.row ~diag:st.diag) }
          else move st ~down:true
        | Write_x | Write_y | Ret _ -> invalid_arg "Renaming.on_read");
    on_write =
      (fun st ->
        match st.phase with
        | Write_x -> { st with phase = Read_y }
        | Write_y -> { st with phase = Read_x }
        | Read_y | Read_x | Ret _ -> invalid_arg "Renaming.on_write");
    pp_op = (fun ppf Rename -> Fmt.string ppf "rename");
  }
