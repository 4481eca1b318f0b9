open Ts_model

(* Display order is documentation order: legitimate protocols first, the
   negative controls after.  The names are cache-key material — see the
   .mli warning before touching an existing entry. *)
let entries :
    (string * string * (n:int -> (Protocol.packed, string) result)) list =
  [
    ("racing", "Zhu's racing-counters binary consensus",
     fun ~n -> Ok (Protocol.Packed (Racing.make ~n)));
    ("racing-rand", "racing with randomized tie-breaking coin flips",
     fun ~n -> Ok (Protocol.Packed (Racing.make_randomized ~n)));
    ("swap", "swap-register consensus (two processes)",
     fun ~n ->
       if n = 2 then Ok (Protocol.Packed (Swap_consensus.two_process ()))
       else Error "swap consensus exists only for n = 2");
    ("kset", "partitioned k-set agreement (k = 2)",
     fun ~n ->
       if n >= 2 then Ok (Protocol.Packed (Kset.make ~n ~k:2))
       else Error "kset with k = 2 needs n >= 2");
    ("multivalued", "multivalued consensus over 2-bit inputs",
     fun ~n -> Ok (Protocol.Packed (Multivalued.make ~n ~bits:2)));
    ("swap-chain", "naive chained swap (negative control)",
     fun ~n -> Ok (Protocol.Packed (Swap_consensus.naive_chain ~n)));
    ("broken-lww", "last-write-wins (agreement violation control)",
     fun ~n -> Ok (Protocol.Packed (Broken.last_write_wins ~n)));
    ("broken-max", "naive max (agreement violation control)",
     fun ~n -> Ok (Protocol.Packed (Broken.naive_max ~n)));
    ("broken-const", "decides a constant (validity violation control)",
     fun ~n -> Ok (Protocol.Packed (Broken.oblivious_seven ~n)));
    ("broken-spin", "spins forever (solo-termination control)",
     fun ~n -> Ok (Protocol.Packed (Broken.insomniac ~n)));
    ("broken-wait", "waits for all (resilience violation control)",
     fun ~n -> Ok (Protocol.Packed (Broken.wait_for_all ~n)));
    ("broken-rogue", "writes outside its declared registers (lint control)",
     fun ~n -> Ok (Protocol.Packed (Broken.rogue_writer ~n)));
    ("broken-scribbler", "announces then decides the complement (crosscheck divergence control)",
     fun ~n -> Ok (Protocol.Packed (Broken.scribbler ~n)));
  ]

(* A constructor refuses an unsupported [n] by raising [Invalid_argument];
   that refusal becomes an [Error] here, once, for every entry. *)
let find name ~n =
  match List.find_opt (fun (nm, _, _) -> String.equal nm name) entries with
  | Some (_, _, make) -> (
    match make ~n with
    | r -> r
    | exception Invalid_argument msg ->
      Error (Printf.sprintf "%s does not support n = %d (%s)" name n msg))
  | None -> Error ("unknown protocol: " ^ name)

let names () = List.map (fun (nm, _, _) -> nm) entries
let names_doc () = String.concat ", " (names ())
