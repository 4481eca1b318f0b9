type encoding = {
  bits : string * int;
  events : int;
}

type event =
  | Start of int
  | Run of int * int  (* actor, consecutive steps *)

(* Merge consecutive steps by the same process into runs. *)
let events_of_log log =
  List.fold_left
    (fun acc entry ->
      match entry, acc with
      | Arena.Started p, _ -> Start p :: acc
      | Arena.Stepped (p, _), Run (q, len) :: rest when q = p -> Run (p, len + 1) :: rest
      | Arena.Stepped (p, _), _ -> Run (p, 1) :: acc)
    [] log
  |> List.rev

(* Move-to-front over process ids: recently scheduled processes get small
   ranks and hence short gamma codes. *)
module Mtf = struct
  type t = int list ref

  let create n : t = ref (List.init n Fun.id)

  let rank (t : t) p =
    let rec go i = function
      | [] -> invalid_arg "Mtf.rank: unknown process"
      | q :: _ when q = p -> i
      | _ :: rest -> go (i + 1) rest
    in
    let r = go 0 !t in
    t := p :: List.filter (fun q -> q <> p) !t;
    r

  let nth (t : t) r =
    let p = List.nth !t r in
    t := p :: List.filter (fun q -> q <> p) !t;
    p
end

let encode (o : Arena.outcome) =
  let events = events_of_log o.Arena.step_log in
  let w = Bits.writer () in
  let mtf = Mtf.create o.Arena.n in
  Bits.write_gamma w o.Arena.n;
  Bits.write_gamma w (List.length events + 1);
  List.iter
    (fun e ->
      match e with
      | Start p ->
        Bits.write_gamma w (Mtf.rank mtf p + 1);
        Bits.write_bit w false
      | Run (p, len) ->
        Bits.write_gamma w (Mtf.rank mtf p + 1);
        Bits.write_bit w true;
        Bits.write_gamma w len)
    events;
  { bits = Bits.contents w; events = List.length events }

let decode alg enc =
  let r = Bits.reader enc.bits in
  let n = Bits.read_gamma r in
  if n <> alg.Algorithm.num_processes then
    invalid_arg "Codec.decode: process count mismatch";
  let nevents = Bits.read_gamma r - 1 in
  let mtf = Mtf.create n in
  let session = Arena.session alg in
  for _ = 1 to nevents do
    let p = Mtf.nth mtf (Bits.read_gamma r - 1) in
    let is_run = Bits.read_bit r in
    if not is_run then Arena.start_proc session p
    else
      let len = Bits.read_gamma r in
      (* the run length came from the encoder counting real steps, so the
         process may complete only on the run's last step; [`Done] earlier
         means the bits don't describe an execution of this algorithm *)
      for k = 1 to len do
        match Arena.step_proc session p with
        | `Continues -> ()
        | `Done ->
          if k < len then
            invalid_arg "Codec.decode: process finished mid-run (corrupt encoding)"
      done
  done;
  Arena.session_outcome session

let round_trip alg (o : Arena.outcome) =
  let enc = encode o in
  match decode alg enc with
  | exception exn -> Error ("decode failed: " ^ Printexc.to_string exn)
  | o' ->
    if o'.Arena.cs_order <> o.Arena.cs_order then
      Error "decoded execution has a different critical-section order"
    else if o'.Arena.cost <> o.Arena.cost then Error "decoded execution has a different cost"
    else if o'.Arena.steps <> o.Arena.steps then Error "decoded execution has a different step count"
    else Ok enc
