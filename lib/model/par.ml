(* Minimal domain fan-out over a list of work items, for the search
   engine and for Ts_lecture.Atomic_run's real-domain runs.  Workers share
   nothing mutable: each returns its (index, result) pairs and the parent
   reassembles them in order, so parallel runs are observationally
   identical to serial ones.  Workers catch everything and every spawned
   domain is joined before the parent returns or re-raises, so a raising
   item never leaks a domain.

   Every spawn/join edge and every touch of the shared reassembly array is
   logged through Obs when access tracing is armed, so the analysis layer's
   vector-clock race detector can certify (or refute) the sharing
   discipline of a parallel run. *)

module Obs = Ts_obs.Obs

type 'a outcome =
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

let catch f x = try Done (f x) with e -> Raised (e, Printexc.get_raw_backtrace ())

(* Total reassembly: every item must have received exactly one outcome.
   A [None] here cannot arise from a raising [f] (workers catch) — it
   means the stride bookkeeping itself dropped a slot, which must surface
   loudly, not as a bare assertion. *)
let strip_slot i = function
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf
         "Par.outcomes_array: no outcome for item %d: a worker slot went \
          missing during stride reassembly"
         i)

(* Strided fan-out shared by both maps: apply [catch f] to every item over
   a pool of [domains] domains (the caller's domain is one of them) and
   reassemble the outcomes in item order.  Total: every item gets exactly
   one outcome, whatever f raised. *)
let outcomes_array ~domains f items =
  let n = Array.length items in
  let domains = max 1 (min domains n) in
  if domains = 1 then Array.map (catch f) items
  else begin
    let worker k () =
      let acc = ref [] in
      let i = ref k in
      while !i < n do
        acc := (!i, catch f items.(!i)) :: !acc;
        i := !i + domains
      done;
      !acc
    in
    let spawned =
      Array.init (domains - 1) (fun k ->
          let token = Obs.fork () in
          ( token,
            Domain.spawn (fun () ->
                Obs.begin_task token;
                (* one span per spawned worker: the fan-out's load balance
                   shows up as the relative lengths of these tracks *)
                let sp = Obs.enter ~cat:"par" "par.worker" in
                Obs.set_int sp "stride" (k + 1);
                let r = worker (k + 1) () in
                Obs.set_int sp "items" (List.length r);
                Obs.close sp;
                Obs.end_task token;
                r) ))
    in
    let results = Array.make n None in
    let results_loc = Obs.fresh_loc "par.results" in
    let collect =
      List.iter (fun (i, r) ->
          Obs.access ~loc:results_loc Obs.Write ~atomic:false;
          results.(i) <- Some r)
    in
    collect (worker 0 ());
    Array.iter
      (fun (token, d) ->
        let r = Domain.join d in
        Obs.join token;
        collect r)
      spawned;
    Array.mapi strip_slot results
  end

(* [map_list ~domains f xs]: like [List.map f xs] but strided over a pool
   of [domains] domains.  Exceptions are re-raised in item order, matching
   what a serial left-to-right map would have surfaced first. *)
let map_list ~domains f xs =
  if domains <= 1 || List.compare_length_with xs 1 <= 0 then List.map f xs
  else
    outcomes_array ~domains f (Array.of_list xs)
    |> Array.to_list
    |> List.map (function
      | Done v -> v
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt)

(* Outcome-preserving variant: a raising item becomes [Error exn] in place
   while every completed sibling's result survives. *)
let map_list_outcomes ~domains f xs =
  outcomes_array ~domains f (Array.of_list xs)
  |> Array.to_list
  |> List.map (function Done v -> Ok v | Raised (e, _) -> Error e)

module Internal = struct
  let strip_slot = strip_slot
end
