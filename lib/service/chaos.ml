(* Seeded fault-injecting TCP relay.  See the .mli for the contract. *)

module Rng = Ts_model.Rng

type classes = {
  resets : bool;
  truncations : bool;
  corruption : bool;
  latency : bool;
  throttle : bool;
}

let all_classes =
  { resets = true; truncations = true; corruption = true; latency = true;
    throttle = true }

let no_classes =
  { resets = false; truncations = false; corruption = false; latency = false;
    throttle = false }

let classes_of_string s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  List.fold_left
    (fun acc part ->
      match acc with
      | Error _ as e -> e
      | Ok c -> (
        match part with
        | "all" -> Ok all_classes
        | "none" -> Ok no_classes
        | "reset" | "resets" -> Ok { c with resets = true }
        | "truncate" | "truncations" -> Ok { c with truncations = true }
        | "corrupt" | "corruption" -> Ok { c with corruption = true }
        | "delay" | "latency" -> Ok { c with latency = true }
        | "throttle" -> Ok { c with throttle = true }
        | other ->
          Error
            (Printf.sprintf
               "unknown fault class %S (reset, truncate, corrupt, delay, \
                throttle, all, none)"
               other)))
    (Ok no_classes) parts

let classes_to_string c =
  let names =
    (if c.resets then [ "reset" ] else [])
    @ (if c.truncations then [ "truncate" ] else [])
    @ (if c.corruption then [ "corrupt" ] else [])
    @ (if c.latency then [ "delay" ] else [])
    @ if c.throttle then [ "throttle" ] else []
  in
  match names with [] -> "none" | _ -> String.concat "," names

type config = {
  listen_host : string;
  listen_port : int;
  upstream_host : string;
  upstream_port : int;
  seed : int;
  fault_prob : float;
  classes : classes;
  max_delay_ms : int;
  verbose : bool;
}

let default_config ~upstream_port =
  {
    listen_host = "127.0.0.1";
    listen_port = 0;
    upstream_host = "127.0.0.1";
    upstream_port;
    seed = 2026;
    fault_prob = 0.6;
    classes = all_classes;
    max_delay_ms = 25;
    verbose = false;
  }

(* The byte corruption writes: 0x01 is not a digit (frame headers), and
   is an unescaped control character (illegal anywhere in JSON), so a
   corrupted frame can only ever fail to parse — never silently carry a
   different answer.  That property is what makes "byte-identical
   answers under corruption" a checkable acceptance bar. *)
let poison_byte = '\x01'

(* ---- per-connection fault plans --------------------------------------- *)

type plan = {
  plan_seed : int;
  delay : float;  (* seconds each relayed chunk is held back; 0 = none *)
  throttle_bytes : int;  (* max bytes per egress write; 0 = unlimited *)
  reset_after : int;  (* total egress bytes before the RST; -1 = never *)
  truncate_after : int;  (* daemon→client egress bytes before FIN; -1 = never *)
  corrupt_up : int list;  (* client→daemon stream offsets to poison *)
  corrupt_down : int list;
}

let clean_plan plan_seed =
  { plan_seed; delay = 0.; throttle_bytes = 0; reset_after = -1;
    truncate_after = -1; corrupt_up = []; corrupt_down = [] }

let plan_is_clean p =
  p.delay = 0. && p.throttle_bytes = 0 && p.reset_after < 0
  && p.truncate_after < 0 && p.corrupt_up = [] && p.corrupt_down = []

(* Every accepted connection gets its own derived seed, so one printed
   master seed replays the whole run and one printed plan seed replays
   one connection's faults. *)
let plan_seed_of ~seed ~id = seed + ((id + 1) * 1_000_003)

let sample_plan cfg ~id =
  let plan_seed = plan_seed_of ~seed:cfg.seed ~id in
  let rng = Rng.create plan_seed in
  let faulty =
    float_of_int (Rng.int rng 1_000_000) < cfg.fault_prob *. 1_000_000.
  in
  if not faulty then clean_plan plan_seed
  else begin
    let c = cfg.classes in
    (* every class draws from the stream whether enabled or not, so
       enabling one class never perturbs another's draws *)
    let w_delay = Rng.bool rng
    and w_throttle = Rng.bool rng
    and w_reset = Rng.bool rng
    and w_trunc = Rng.bool rng
    and w_corrupt = Rng.bool rng in
    let delay =
      let d = 1 + Rng.int rng (max 1 cfg.max_delay_ms) in
      if c.latency && w_delay then float_of_int d /. 1000. else 0.
    in
    let throttle_bytes =
      let b = 256 + Rng.int rng 3840 in
      if c.throttle && w_throttle then b else 0
    in
    let reset_after =
      let b = Rng.int rng 4096 in
      if c.resets && w_reset then b else -1
    in
    let truncate_after =
      let b = Rng.int rng 2048 in
      if c.truncations && w_trunc then b else -1
    in
    let n_corr = 1 + Rng.int rng 3 in
    let corrupt =
      List.init n_corr (fun _ ->
          let down = Rng.bool rng in
          let off = Rng.int rng 4096 in
          (down, off))
    in
    let corrupt_up, corrupt_down =
      if c.corruption && w_corrupt then
        ( List.filter_map (fun (d, o) -> if d then None else Some o) corrupt,
          List.filter_map (fun (d, o) -> if d then Some o else None) corrupt )
      else ([], [])
    in
    { plan_seed; delay; throttle_bytes; reset_after; truncate_after;
      corrupt_up; corrupt_down }
  end

let plan_to_string p =
  if plan_is_clean p then "clean"
  else
    String.concat "+"
      ((if p.delay > 0. then
          [ Printf.sprintf "delay %.0fms" (p.delay *. 1000.) ]
        else [])
      @ (if p.throttle_bytes > 0 then
           [ Printf.sprintf "throttle %dB" p.throttle_bytes ]
         else [])
      @ (if p.reset_after >= 0 then
           [ Printf.sprintf "reset@%d" p.reset_after ]
         else [])
      @ (if p.truncate_after >= 0 then
           [ Printf.sprintf "truncate@%d" p.truncate_after ]
         else [])
      @
      match p.corrupt_up @ p.corrupt_down with
      | [] -> []
      | offs ->
        [
          Printf.sprintf "corrupt@[%s]"
            (String.concat ";" (List.map string_of_int offs));
        ])

(* ---- relay state ------------------------------------------------------ *)

type chunk = { buf : Bytes.t; mutable off : int; ready_at : float }

type link = {
  id : int;
  plan : plan;
  cfd : Unix.file_descr;  (* client side *)
  ufd : Unix.file_descr;  (* upstream (daemon) side *)
  upq : chunk Queue.t;  (* client → daemon *)
  downq : chunk Queue.t;  (* daemon → client *)
  mutable in_up : int;  (* ingress stream offsets, for corruption *)
  mutable in_down : int;
  mutable out_up : int;  (* egress counts, for reset/truncate *)
  mutable out_down : int;
  mutable ceof : bool;
  mutable ueof : bool;
  mutable dead : bool;
}

type stats = {
  connections : int;
  faulted : int;
  resets : int;
  truncations : int;
  corruptions : int;
  delayed_chunks : int;
  throttled_chunks : int;
  bytes_up : int;
  bytes_down : int;
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  mutable domain : unit Domain.t option;
  m : Mutex.t;  (* guards the counters, read from other domains *)
  mutable s_connections : int;
  mutable s_faulted : int;
  mutable s_resets : int;
  mutable s_truncations : int;
  mutable s_corruptions : int;
  mutable s_delayed : int;
  mutable s_throttled : int;
  mutable s_bytes_up : int;
  mutable s_bytes_down : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.m)

let event t fmt =
  Printf.ksprintf
    (fun msg -> if t.cfg.verbose then Printf.eprintf "chaos: %s\n%!" msg)
    fmt

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let kill link =
  if not link.dead then begin
    link.dead <- true;
    close_quiet link.cfd;
    close_quiet link.ufd
  end

(* An injected reset must look like a crash, not a polite close: linger 0
   turns the close into an RST on the wire. *)
let inject_reset t link =
  (try Unix.setsockopt_optint link.cfd Unix.SO_LINGER (Some 0)
   with Unix.Unix_error _ -> ());
  (try Unix.setsockopt_optint link.ufd Unix.SO_LINGER (Some 0)
   with Unix.Unix_error _ -> ());
  locked t (fun () -> t.s_resets <- t.s_resets + 1);
  event t "conn %d: reset after %d relayed bytes (plan seed %d: %s)" link.id
    (link.out_up + link.out_down)
    link.plan.plan_seed (plan_to_string link.plan);
  kill link

let inject_truncate t link =
  locked t (fun () -> t.s_truncations <- t.s_truncations + 1);
  event t "conn %d: downstream truncated after %d bytes (plan seed %d: %s)"
    link.id link.out_down link.plan.plan_seed (plan_to_string link.plan);
  kill link

(* Poison every planned offset that falls inside [first, first+len) of
   this direction's ingress stream. *)
let corrupt t link ~offsets ~first buf len =
  List.iter
    (fun off ->
      if off >= first && off < first + len then begin
        Bytes.set buf (off - first) poison_byte;
        locked t (fun () -> t.s_corruptions <- t.s_corruptions + 1);
        event t "conn %d: byte at stream offset %d corrupted (plan seed %d)"
          link.id off link.plan.plan_seed
      end)
    offsets

(* ---- the relay loop --------------------------------------------------- *)

let read_side t link ~from_client scratch =
  let fd = if from_client then link.cfd else link.ufd in
  match Unix.read fd scratch 0 (Bytes.length scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> kill link
  | 0 -> if from_client then link.ceof <- true else link.ueof <- true
  | n ->
    let buf = Bytes.sub scratch 0 n in
    let first = if from_client then link.in_up else link.in_down in
    let offsets =
      if from_client then link.plan.corrupt_up else link.plan.corrupt_down
    in
    corrupt t link ~offsets ~first buf n;
    if from_client then link.in_up <- link.in_up + n
    else link.in_down <- link.in_down + n;
    let now = Unix.gettimeofday () in
    if link.plan.delay > 0. then
      locked t (fun () -> t.s_delayed <- t.s_delayed + 1);
    Queue.push
      { buf; off = 0; ready_at = now +. link.plan.delay }
      (if from_client then link.upq else link.downq)

let write_side t link ~to_client =
  let fd = if to_client then link.cfd else link.ufd in
  let q = if to_client then link.downq else link.upq in
  if not (Queue.is_empty q) then begin
    let c = Queue.peek q in
    let len = Bytes.length c.buf - c.off in
    let len, clipped =
      if link.plan.throttle_bytes > 0 && len > link.plan.throttle_bytes then
        (link.plan.throttle_bytes, true)
      else (len, false)
    in
    (* a planned reset caps how many bytes may ever leave the proxy *)
    let reset_allow =
      if link.plan.reset_after >= 0 then
        link.plan.reset_after - (link.out_up + link.out_down)
      else max_int
    in
    let trunc_allow =
      if to_client && link.plan.truncate_after >= 0 then
        link.plan.truncate_after - link.out_down
      else max_int
    in
    if reset_allow <= 0 then inject_reset t link
    else if trunc_allow <= 0 then inject_truncate t link
    else begin
      let len = min len (min reset_allow trunc_allow) in
      match Unix.write fd c.buf c.off len with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error (_, _, _) -> kill link
      | k ->
        if clipped && k > 0 then
          locked t (fun () -> t.s_throttled <- t.s_throttled + 1);
        c.off <- c.off + k;
        if to_client then begin
          link.out_down <- link.out_down + k;
          locked t (fun () -> t.s_bytes_down <- t.s_bytes_down + k)
        end
        else begin
          link.out_up <- link.out_up + k;
          locked t (fun () -> t.s_bytes_up <- t.s_bytes_up + k)
        end;
        if c.off >= Bytes.length c.buf then ignore (Queue.pop q)
    end
  end

(* Propagate EOFs once the pending bytes for that direction have been
   relayed; release the link when both directions are finished. *)
let maybe_finish link =
  if not link.dead then begin
    if link.ceof && Queue.is_empty link.upq then
      (try Unix.shutdown link.ufd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ | Invalid_argument _ -> ());
    if link.ueof && Queue.is_empty link.downq then
      (try Unix.shutdown link.cfd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ | Invalid_argument _ -> ());
    if
      link.ceof && link.ueof && Queue.is_empty link.upq
      && Queue.is_empty link.downq
    then kill link
  end

let accept_one t links next_id =
  match Unix.accept ~cloexec:true t.lsock with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> ()
  | cfd, _ -> (
    let id = !next_id in
    incr next_id;
    let plan = sample_plan t.cfg ~id in
    locked t (fun () ->
        t.s_connections <- t.s_connections + 1;
        if not (plan_is_clean plan) then t.s_faulted <- t.s_faulted + 1);
    if not (plan_is_clean plan) then
      event t "conn %d: plan %s (seed %d)" id (plan_to_string plan)
        plan.plan_seed;
    match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> close_quiet cfd
    | ufd -> (
      match
        Unix.connect ufd
          (Unix.ADDR_INET
             (Unix.inet_addr_of_string t.cfg.upstream_host, t.cfg.upstream_port))
      with
      | exception Unix.Unix_error (err, _, _) ->
        event t "conn %d: upstream connect failed: %s" id
          (Unix.error_message err);
        close_quiet ufd;
        close_quiet cfd
      | () ->
        Unix.set_nonblock cfd;
        Unix.set_nonblock ufd;
        (try Unix.setsockopt cfd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        (try Unix.setsockopt ufd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        links :=
          {
            id; plan; cfd; ufd;
            upq = Queue.create ();
            downq = Queue.create ();
            in_up = 0; in_down = 0; out_up = 0; out_down = 0;
            ceof = false; ueof = false; dead = false;
          }
          :: !links))

let relay t =
  let links = ref [] in
  let next_id = ref 0 in
  let scratch = Bytes.create 8192 in
  while not (Atomic.get t.stop_flag) do
    links := List.filter (fun l -> not l.dead) !links;
    let now = Unix.gettimeofday () in
    let due q =
      (not (Queue.is_empty q)) && (Queue.peek q).ready_at <= now
    in
    let rds = ref [ t.lsock ] and wrs = ref [] and timeout = ref 0.05 in
    List.iter
      (fun l ->
        (* stop reading a side whose outbound queue has grown deep —
           cheap backpressure so a throttled link cannot buffer a run's
           whole traffic *)
        if (not l.ceof) && Queue.length l.upq < 128 then rds := l.cfd :: !rds;
        if (not l.ueof) && Queue.length l.downq < 128 then rds := l.ufd :: !rds;
        if due l.upq then wrs := l.ufd :: !wrs
        else if not (Queue.is_empty l.upq) then
          timeout := min !timeout ((Queue.peek l.upq).ready_at -. now);
        if due l.downq then wrs := l.cfd :: !wrs
        else if not (Queue.is_empty l.downq) then
          timeout := min !timeout ((Queue.peek l.downq).ready_at -. now))
      !links;
    let timeout = Float.max 0.001 !timeout in
    match Unix.select !rds !wrs [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* a link died under select; the prune at the top of the next
         iteration drops it *)
      ()
    | rd, wr, _ ->
      if List.memq t.lsock rd then accept_one t links next_id;
      List.iter
        (fun l ->
          if not l.dead then begin
            if List.memq l.cfd rd then read_side t l ~from_client:true scratch;
            if (not l.dead) && List.memq l.ufd rd then
              read_side t l ~from_client:false scratch;
            if (not l.dead) && List.memq l.ufd wr then
              write_side t l ~to_client:false;
            if (not l.dead) && List.memq l.cfd wr then
              write_side t l ~to_client:true;
            maybe_finish l
          end)
        !links
  done;
  List.iter kill !links;
  close_quiet t.lsock

(* ---- lifecycle -------------------------------------------------------- *)

let start cfg =
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  (try
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.listen_host, cfg.listen_port))
   with e ->
     close_quiet lsock;
     raise e);
  Unix.listen lsock 64;
  Unix.set_nonblock lsock;
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.listen_port
  in
  let t =
    {
      cfg;
      lsock;
      bound_port;
      stop_flag = Atomic.make false;
      domain = None;
      m = Mutex.create ();
      s_connections = 0;
      s_faulted = 0;
      s_resets = 0;
      s_truncations = 0;
      s_corruptions = 0;
      s_delayed = 0;
      s_throttled = 0;
      s_bytes_up = 0;
      s_bytes_down = 0;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> relay t));
  t

let port t = t.bound_port

let stop t =
  Atomic.set t.stop_flag true;
  match t.domain with
  | None -> ()
  | Some d ->
    t.domain <- None;
    Domain.join d

let stats t =
  locked t (fun () ->
      {
        connections = t.s_connections;
        faulted = t.s_faulted;
        resets = t.s_resets;
        truncations = t.s_truncations;
        corruptions = t.s_corruptions;
        delayed_chunks = t.s_delayed;
        throttled_chunks = t.s_throttled;
        bytes_up = t.s_bytes_up;
        bytes_down = t.s_bytes_down;
      })

let pp_stats ppf s =
  Format.fprintf ppf
    "%d connection%s (%d faulted): %d reset%s, %d truncation%s, %d corrupted \
     byte%s, %d delayed chunk%s, %d throttled write%s, %d B up / %d B down"
    s.connections
    (if s.connections = 1 then "" else "s")
    s.faulted s.resets
    (if s.resets = 1 then "" else "s")
    s.truncations
    (if s.truncations = 1 then "" else "s")
    s.corruptions
    (if s.corruptions = 1 then "" else "s")
    s.delayed_chunks
    (if s.delayed_chunks = 1 then "" else "s")
    s.throttled_chunks
    (if s.throttled_chunks = 1 then "" else "s")
    s.bytes_up s.bytes_down
