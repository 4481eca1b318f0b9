module Cert = Ts_cert.Cert

type report = {
  witnesses : int;
  validated : int;
  tampers : int;
  tampers_rejected : int;
  errors : string list;
  checker_ns : int64;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, Int64.of_float ((t1 -. t0) *. 1e9))

(* Every mutation a certificate must survive^W die from. *)
let tampers (s : string) : (string * string) list =
  let mutants = ref [] in
  let add name m = mutants := (name, m) :: !mutants in
  (* 1. a single flipped byte, mid-document *)
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  add "byte-flip" (Bytes.to_string b);
  (match Cert.of_string s with
  | Error _ -> ()
  | Ok cert ->
      let module J = Ts_microcheck.Microcheck.Json in
      let doc = Cert.to_json cert in
      (match doc with
      | J.Obj kvs ->
          (* 2. schedule tamper with a forged digest — rejection must come
             from the replay, not the digest.  Reattribute the first step
             to a different process (the trace no longer agrees); an empty
             schedule gains a phantom step the trace does not have. *)
          let swap_field name f =
            List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) kvs
          in
          let tampered_schedule = function
            | J.List [] -> J.List [ J.Obj [ ("p", J.Int 0) ] ]
            | J.List (J.Obj ev :: rest) ->
                let ev =
                  List.map
                    (fun (k, v) ->
                      match (k, v) with
                      | "p", J.Int p -> (k, J.Int (p + 1))
                      | kv -> kv)
                    ev
                in
                J.List (J.Obj ev :: rest)
            | other -> other
          in
          add "schedule-tamper"
            (Cert.to_string
               (Cert.resign
                  (Cert.of_json
                     (J.Obj (swap_field "schedule" tampered_schedule)))));
          (* 3. verdict tamper: rewrite the claim wholesale (an empty
             object claims nothing the checker recognizes), digest forged *)
          add "verdict-tamper"
            (Cert.to_string
               (Cert.resign
                  (Cert.of_json (J.Obj (swap_field "claim" (fun _ -> J.Obj []))))));
          (* 4. digest tamper: zero the self-digest *)
          add "digest-tamper"
            (Cert.to_string
               (Cert.of_json
                  (J.Obj
                     (swap_field "digest" (fun _ -> J.Str (String.make 16 '0'))))))
      | _ -> ()));
  List.rev !mutants

let check proto certs =
  let errors = ref [] in
  let validated = ref 0 in
  let tamper_total = ref 0 in
  let tamper_rejected = ref 0 in
  let checker_ns = ref 0L in
  let microcheck s =
    let verdict, ns = timed (fun () -> Cert.microcheck_string s) in
    checker_ns := Int64.add !checker_ns ns;
    verdict
  in
  List.iter
    (fun (what, cert) ->
      let s = Cert.to_string cert in
      (match (microcheck s, Cert.validate proto cert) with
      | Ok (), Ok () -> incr validated
      | Error m, _ ->
          errors :=
            Printf.sprintf "%s: micro-checker rejected a genuine witness: %s"
              what m
            :: !errors
      | _, Error m ->
          errors :=
            Printf.sprintf "%s: engine replay rejected a genuine witness: %s"
              what m
            :: !errors);
      List.iter
        (fun (mname, mutant) ->
          incr tamper_total;
          match microcheck mutant with
          | Error _ -> incr tamper_rejected
          | Ok () ->
              errors :=
                Printf.sprintf "%s: %s mutant was ACCEPTED" what mname
                :: !errors)
        (tampers s))
    certs;
  { witnesses = List.length certs; validated = !validated;
    tampers = !tamper_total; tampers_rejected = !tamper_rejected;
    errors = List.rev !errors; checker_ns = !checker_ns }

let ok r =
  r.errors = [] && r.validated = r.witnesses && r.tampers_rejected = r.tampers
