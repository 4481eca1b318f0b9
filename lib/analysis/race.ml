open Ts_model
module Obs = Ts_obs.Obs

type access = {
  domain : int;
  loc : string;
  kind : Obs.kind;
  atomic : bool;
  index : int;
}

type race = {
  loc : string;
  first : access;
  second : access;
}

type report = {
  events : int;
  accesses : int;
  locations : int;
  domains : int;
  races : race list;
}

(* Vector clocks over domain ids.  Domains are sparse (OCaml allocates
   fresh ids per spawn), so a map is the honest representation. *)
module IM = Map.Make (Int)

type vc = int IM.t

let vc_get d (c : vc) = Option.value ~default:0 (IM.find_opt d c)
let vc_join (a : vc) (b : vc) : vc = IM.union (fun _ x y -> Some (max x y)) a b

(* [a <= b] pointwise: every event summarized by [a] happens-before the
   point summarized by [b]. *)
let vc_leq (a : vc) (b : vc) = IM.for_all (fun d x -> x <= vc_get d b) a

(* Per-location state: merged vector clocks of all plain/atomic reads and
   writes so far (FastTrack's read/write clocks, split by atomicity), plus
   the last contributing access of each category for race reporting. *)
type loc_state = {
  mutable plain_w : vc;
  mutable plain_w_last : access option;
  mutable atomic_w : vc;
  mutable atomic_w_last : access option;
  mutable plain_r : vc;
  mutable plain_r_last : access option;
  mutable atomic_r : vc;
  mutable atomic_r_last : access option;
}

let fresh_loc_state () =
  {
    plain_w = IM.empty;
    plain_w_last = None;
    atomic_w = IM.empty;
    atomic_w_last = None;
    plain_r = IM.empty;
    plain_r_last = None;
    atomic_r = IM.empty;
    atomic_r_last = None;
  }

let check events =
  (* clock of each domain; a domain's own component ticks per event *)
  let clocks : (int, vc) Hashtbl.t = Hashtbl.create 16 in
  let clock d =
    match Hashtbl.find_opt clocks d with
    | Some c -> c
    | None ->
      let c = IM.singleton d 1 in
      Hashtbl.replace clocks d c;
      c
  in
  let tick d = Hashtbl.replace clocks d (IM.add d (vc_get d (clock d) + 1) (clock d)) in
  let absorb d c = Hashtbl.replace clocks d (vc_join (clock d) c) in
  (* fork tokens carry the parent clock to Begin, child clock to Join *)
  let fork_snap : (int, vc) Hashtbl.t = Hashtbl.create 16 in
  let end_snap : (int, vc) Hashtbl.t = Hashtbl.create 16 in
  let locs : (string, loc_state) Hashtbl.t = Hashtbl.create 64 in
  let raced : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let races = ref [] in
  let domains : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let n_access = ref 0 in
  let n_events = ref 0 in
  List.iteri
    (fun index ev ->
      incr n_events;
      match ev with
      | Obs.Fork { parent; token } ->
        Hashtbl.replace domains parent ();
        Hashtbl.replace fork_snap token (clock parent);
        tick parent
      | Obs.Begin { child; token } ->
        Hashtbl.replace domains child ();
        (match Hashtbl.find_opt fork_snap token with
         | Some c -> absorb child c
         | None -> ());
        tick child
      | Obs.End { child; token } ->
        Hashtbl.replace domains child ();
        Hashtbl.replace end_snap token (clock child);
        tick child
      | Obs.Join { parent; token } ->
        Hashtbl.replace domains parent ();
        (match Hashtbl.find_opt end_snap token with
         | Some c -> absorb parent c
         | None -> ());
        tick parent
      | Obs.Access { domain; loc; kind; atomic } ->
        Hashtbl.replace domains domain ();
        incr n_access;
        let a = { domain; loc; kind; atomic; index } in
        let st =
          match Hashtbl.find_opt locs loc with
          | Some st -> st
          | None ->
            let st = fresh_loc_state () in
            Hashtbl.replace locs loc st;
            st
        in
        let now = clock domain in
        (* which recorded categories conflict with this access?  at least
           one write, not both atomic *)
        let against =
          match kind, atomic with
          | Obs.Write, false ->
            [ st.plain_w, st.plain_w_last; st.atomic_w, st.atomic_w_last;
              st.plain_r, st.plain_r_last; st.atomic_r, st.atomic_r_last ]
          | Obs.Write, true -> [ st.plain_w, st.plain_w_last; st.plain_r, st.plain_r_last ]
          | Obs.Read, false -> [ st.plain_w, st.plain_w_last; st.atomic_w, st.atomic_w_last ]
          | Obs.Read, true -> [ st.plain_w, st.plain_w_last ]
        in
        if not (Hashtbl.mem raced loc) then
          List.iter
            (fun (cat_vc, cat_last) ->
              if (not (Hashtbl.mem raced loc)) && not (vc_leq cat_vc now) then begin
                Hashtbl.replace raced loc ();
                match cat_last with
                | Some first -> races := { loc; first; second = a } :: !races
                | None -> ()
              end)
            against;
        (match kind, atomic with
         | Obs.Write, false ->
           st.plain_w <- vc_join st.plain_w now;
           st.plain_w_last <- Some a
         | Obs.Write, true ->
           st.atomic_w <- vc_join st.atomic_w now;
           st.atomic_w_last <- Some a
         | Obs.Read, false ->
           st.plain_r <- vc_join st.plain_r now;
           st.plain_r_last <- Some a
         | Obs.Read, true ->
           st.atomic_r <- vc_join st.atomic_r now;
           st.atomic_r_last <- Some a);
        tick domain
      | Obs.Span_open _ | Obs.Span_close _ | Obs.Instant _ ->
        (* profiler events share the unified stream but carry no
           happens-before information; count and skip *)
        ())
    events;
  {
    events = !n_events;
    accesses = !n_access;
    locations = Hashtbl.length locs;
    domains = Hashtbl.length domains;
    races = List.rev !races;
  }

let race_free r = r.races = []

let certify_engine ?(domains = 4) () =
  Obs.start_accesses ();
  let finish () = check (Obs.stop_accesses ()) in
  match
    let proto = Ts_protocols.Racing.make ~n:2 in
    Ts_checker.Explore.check_consensus proto ~domains
      ~budget:(Ts_core.Budget.create ~max_nodes:2_000_000 ())
      ~inputs_list:(Ts_checker.Explore.binary_inputs 2)
      ~max_configs:300 ~max_depth:12 ~solo_budget:60 ~check_solo:true
  with
  | _ -> finish ()
  | exception e ->
    ignore (finish ());
    raise e

let planted ?(domains = 2) () =
  Obs.start_accesses ();
  let cell = ref 0 in
  let bump _ =
    for _ = 1 to 8 do
      Obs.access ~loc:"planted.cell" Obs.Read ~atomic:false;
      let v = !cell in
      Obs.access ~loc:"planted.cell" Obs.Write ~atomic:false;
      cell := v + 1
    done
  in
  ignore (Par.map_list ~domains bump [ 0; 1; 2; 3 ]);
  check (Obs.stop_accesses ())

(* Which two accesses of a raced location meet first (their domains,
   kinds and log positions) depends on the scheduler, so only the
   location is written: the document is the same from run to run. *)
let to_json r =
  Json.Obj
    [
      "events", Json.Int r.events;
      "accesses", Json.Int r.accesses;
      "locations", Json.Int r.locations;
      "domains", Json.Int r.domains;
      "race_free", Json.Bool (race_free r);
      "races", Json.List (List.map (fun rc -> Json.Obj [ "loc", Json.Str rc.loc ]) r.races);
    ]

let pp_access ppf a =
  Fmt.pf ppf "d%d %s%s@%d"
    a.domain
    (match a.kind with Obs.Read -> "read" | Obs.Write -> "write")
    (if a.atomic then "[atomic]" else "")
    a.index

let pp_report ppf r =
  if race_free r then
    Fmt.pf ppf "race-free: %d events (%d accesses) over %d locations, %d domains"
      r.events r.accesses r.locations r.domains
  else
    Fmt.pf ppf "@[<v>%d race(s) in %d events:%a@]" (List.length r.races) r.events
      (Fmt.list ~sep:Fmt.nop (fun ppf rc ->
           Fmt.pf ppf "@,  %s: %a unordered with %a" rc.loc pp_access rc.first
             pp_access rc.second))
      r.races
