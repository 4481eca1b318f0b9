open Ts_model

type xcheck =
  | Expect_agree
  | Expect_diverge
  | Informational

type entry = {
  cli_name : string;
  protocol : Protocol.packed;
  claims : Lint.claims;
  inputs_list : Value.t array list;
  k : int;
  max_configs : int;
  max_depth : int;
  solo_budget : int;
  resilience : int option;
  expect_clean : bool;
  xcheck : xcheck;
}

let rw_det = { Lint.binary_decides = true; may_swap = false; may_flip = false }

(* Inputs 0..2^bits-1 per process, full cross product — the multivalued
   protocol's domain is wider than binary. *)
let range_inputs n ~lo ~hi =
  let rec go p =
    if p = n then [ [] ]
    else
      let rest = go (p + 1) in
      List.concat_map (fun v -> List.map (fun tl -> Value.int v :: tl) rest)
        (List.init (hi - lo + 1) (fun i -> lo + i))
  in
  List.map Array.of_list (go 0)

(* The instance comes from the catalog, the one name -> instance
   authority, so a registered name is always a cataloged one. *)
let entry ?(n = 2) ?(claims = rw_det) ?(k = 1) ?(max_configs = 4_000)
    ?(max_depth = 25) ?(solo_budget = 300) ?inputs_list ?resilience
    ?(expect_clean = true) ?(xcheck = Informational) cli_name =
  let protocol =
    match Ts_protocols.Catalog.find cli_name ~n with
    | Ok p -> p
    | Error m -> invalid_arg ("Registry: " ^ m)
  in
  let inputs_list =
    match inputs_list with
    | Some l -> l
    | None -> Ts_checker.Explore.binary_inputs n
  in
  { cli_name; protocol; claims; inputs_list; k; max_configs; max_depth;
    solo_budget; resilience; expect_clean; xcheck }

let all () =
  [
    entry "racing" ~xcheck:Expect_agree;
    entry "racing-rand" ~claims:{ rw_det with may_flip = true }
      ~xcheck:Expect_agree;
    entry "swap" ~claims:{ rw_det with may_swap = true } ~xcheck:Expect_agree;
    entry "kset" ~n:3 ~k:2 ~max_configs:12_000 ~solo_budget:150;
    entry "multivalued"
      ~claims:{ rw_det with binary_decides = false }
      ~inputs_list:(range_inputs 2 ~lo:0 ~hi:3)
      ~max_configs:12_000 ~solo_budget:400;
    (* negative controls: the gate requires each to be flagged *)
    entry "swap-chain" ~n:3 ~claims:{ rw_det with may_swap = true }
      ~expect_clean:false;
    entry "broken-lww" ~expect_clean:false;
    entry "broken-max" ~max_configs:50_000 ~max_depth:30 ~expect_clean:false;
    entry "broken-const" ~expect_clean:false;
    entry "broken-spin" ~expect_clean:false;
    (* the crash control: it also violates 1-resilience *)
    entry "broken-wait" ~resilience:1 ~expect_clean:false;
    entry "broken-rogue" ~expect_clean:false;
    (* the planted divergence: the revisionist engine claims a bound here,
       the Lemmas engine refuses — the gate must catch the disagreement *)
    entry "broken-scribbler" ~expect_clean:false ~xcheck:Expect_diverge;
  ]

let find name = List.find_opt (fun e -> String.equal e.cli_name name) (all ())
let names () = List.map (fun e -> e.cli_name) (all ())

let lookup name =
  match find name with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "no registry entry %S (known: %s)" name
         (String.concat ", " (names ())))
