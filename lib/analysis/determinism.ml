open Ts_model

let report = Finding.Sink.report

(* Outcome of one attempted step, reduced to comparable data: the packed
   digest of the successor plus the performed action, or the exception
   text.  Digest comparison is exactly the equality the memo tables use,
   so "same outcome" here means "the search core cannot be confused". *)
let outcome proto pk cfg p ~coin =
  match Config.step proto cfg p ~coin with
  | cfg', act -> Ok (Ckey.pack pk cfg', act)
  | exception e -> Error (Printexc.to_string e)

let outcomes_equal a b =
  match a, b with
  | Ok (d1, a1), Ok (d2, a2) -> Ckey.equal d1 d2 && Action.equal a1 a2
  | Error e1, Error e2 -> String.equal e1 e2
  | _ -> false

let describe = function
  | Ok (_, act) -> Format.asprintf "%a" Action.pp act
  | Error e -> "raise " ^ e

(* A shadow copy of the configuration: a structural round-trip severs any
   aliasing from the state into mutable store outside the configuration.
   States are required to be plain immutable data, so this must both
   succeed and behave identically. *)
let shadow_copy (cfg : 's Config.t) : 's Config.t option =
  match Marshal.to_string cfg [] with
  | s -> Some (Marshal.from_string s 0)
  | exception _ -> None

let run ?(max_configs = 1_500) ?(max_depth = 20) proto ~inputs_list =
  let n = proto.Protocol.num_processes in
  let snk = Finding.Sink.create ~protocol:proto.Protocol.name ~pass:"determinism" in
  let pk = Ckey.packer proto in
  let visited = Ckey.Tbl.create 256 in
  let explored = ref 0 in
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
        report snk ~code:"init-raised" Finding.Error
          (Printf.sprintf "init raised: %s" (Printexc.to_string e)))
    inputs_list;
  while not (Queue.is_empty q) do
    let cfg, depth = Queue.pop q in
    incr explored;
    if depth < max_depth && !explored < max_configs then
      for p = 0 to n - 1 do
        (* poised must be a pure observation: ask twice *)
        let poised () = try Ok (Config.poised proto cfg p) with e -> Error (Printexc.to_string e) in
        let p1 = poised () and p2 = poised () in
        if p1 <> p2 then
          report snk ~code:"unstable-poised" Finding.Error
            (Printf.sprintf
               "poised for p%d changed between two observations of the same \
                configuration: hidden mutable state"
               p);
        match p1 with
        | Error _ | Ok None -> ()
        | Ok (Some act) ->
          List.iter
            (fun coin ->
              let o1 = outcome proto pk cfg p ~coin in
              let o2 = outcome proto pk cfg p ~coin in
              if not (outcomes_equal o1 o2) then
                report snk ~code:"hidden-nondeterminism" Finding.Error
                  (Printf.sprintf
                     "stepping p%d twice from one configuration diverged (%s vs %s): \
                      nondeterminism not routed through a declared coin"
                     p (describe o1) (describe o2));
              (match shadow_copy cfg with
               | None ->
                 report snk ~code:"state-not-plain-data" Finding.Error
                   (Printf.sprintf
                      "configuration is not structurally serializable (closure or \
                       custom block in p%d's state?): memoization and replay are \
                       unsound"
                      p)
               | Some cfg_shadow ->
                 let o3 = outcome proto pk cfg_shadow p ~coin in
                 if not (outcomes_equal o1 o3) then
                   report snk ~code:"impure-transition" Finding.Error
                     (Printf.sprintf
                        "stepping p%d from a shadow copy diverged (%s vs %s): the \
                         transition reads state outside the configuration"
                        p (describe o1) (describe o3)));
              match o1 with
              | Error _ -> ()
              | Ok _ ->
                (* expand from a fresh step so the enqueued successor is the
                   protocol's honest output, not an artifact of the probes *)
                (match Config.step proto cfg p ~coin with
                 | cfg', _ ->
                   let k = Ckey.pack pk cfg' in
                   if not (Ckey.Tbl.mem visited k) then begin
                     Ckey.Tbl.add visited k ();
                     Queue.add (cfg', depth + 1) q
                   end
                 | exception _ -> ()))
            (Execution.coins act)
      done
  done;
  Finding.Sink.findings snk
