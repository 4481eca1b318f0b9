(* The real [tightspace serve] binary, started as its own process, and the
   closed-loop client that drives it over TCP. *)

module Frame = Ts_service.Frame

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* The fixed daemon set-up, identical on every commit: everything not
   named here is the binary's default (fsync always, cache 4096 entries in
   8 shards, 30 s deadline). *)
let exe = "_build/default/bin/tightspace.exe"
let flags = [ "serve"; "--port"; "0"; "--workers"; "2" ]

(* --- one connection --------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* One framed response, scanned in place by the daemon's own incremental
   frame parser. *)
let rec recv c =
  match Frame.parse c.buf ~pos:c.pos ~len:c.len with
  | `Frame (off, n) ->
    c.pos <- off + n;
    Bytes.sub_string c.buf off n
  | `Error e -> failwith ("response stream: " ^ Frame.error_to_string e)
  | `Need_more ->
    Bytes.blit c.buf c.pos c.buf 0 (c.len - c.pos);
    c.len <- c.len - c.pos;
    c.pos <- 0;
    if c.len = Bytes.length c.buf then begin
      let bigger = Bytes.create (2 * Bytes.length c.buf) in
      Bytes.blit c.buf 0 bigger 0 c.len;
      c.buf <- bigger
    end;
    let k = Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) in
    if k = 0 then failwith "daemon closed the connection";
    c.len <- c.len + k;
    recv c

let rpc c frame =
  write_all c.fd frame 0;
  recv c

let simple_frame op =
  let payload = Printf.sprintf "{\"id\":0,\"op\":%S}" op in
  Printf.sprintf "%d\n%s" (String.length payload) payload

(* --- the process ------------------------------------------------------ *)

type t = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (** the daemon's stdout *)
  err : string;  (** file holding the daemon's stderr *)
}

let live = ref []

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let fail_start t msg =
  failwith (Printf.sprintf "daemon: %s; its stderr:\n%s" msg (read_file t.err))

(* Read the stdout banner one byte at a time (so nothing past it is
   consumed), giving up after [timeout] seconds. *)
let read_line fd ~timeout =
  let line = Buffer.create 128 and b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd b 0 1 with
        | 0 -> None
        | _ when Bytes.get b 0 = '\n' -> Some (Buffer.contents line)
        | _ ->
          Buffer.add_char line (Bytes.get b 0);
          go ())
  in
  go ()

let port_of_banner line =
  let marker = "listening on 127.0.0.1:" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length line then None
    else if String.sub line i ml = marker then
      let j = ref (i + ml) in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub line (i + ml) (!j - i - ml))
    else find (i + 1)
  in
  find 0

(* [start ~store ~err] spawns the daemon on the witness log [store] and
   returns it with its set-up time: spawn -> first [health] answered ok. *)
let start ~store ~err =
  let t0 = now_ns () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let errfd =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let argv = Array.of_list ((exe :: flags) @ [ "--store"; store ]) in
  let pid = Unix.create_process exe argv Unix.stdin wr errfd in
  Unix.close wr;
  Unix.close errfd;
  live := pid :: !live;
  let t = { pid; port = 0; out = rd; err } in
  let port =
    match Option.bind (read_line rd ~timeout:60.) port_of_banner with
    | Some p -> p
    | None -> fail_start t "no listening banner"
  in
  let t = { t with port } in
  let c = connect port in
  let health = rpc c (simple_frame "health") in
  close c;
  let t1 = now_ns () in
  if not (String.starts_with ~prefix:"{\"id\":0,\"ok\":true" health) then
    fail_start t ("health not ok: " ^ health);
  (t, ms_between t0 t1 /. 1000.)

(* Graceful stop: SIGTERM, drain stdout to EOF, reap.  A daemon that does
   not drain within 30 s is killed. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left > 0. then
      match Unix.select [ t.out ] [] [] left with
      | [], _, _ -> ()
      | _ -> if Unix.read t.out buf 0 4096 > 0 then drain ()
  in
  drain ();
  (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
   | 0, _ ->
     (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] t.pid)
   | _ -> ());
  Unix.close t.out;
  live := List.filter (( <> ) t.pid) !live

(* No daemon outlives the benchmark, whatever way it exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* --- what /proc says about the daemon --------------------------------- *)

(* CPU time of every live thread, in ms, at nanosecond resolution: the
   first field of each /proc/PID/task/TID/schedstat.  (/proc/PID/stat
   counts 10 ms ticks, too coarse for a window of cached answers.)  A
   thread that exits takes its time with it; the daemon's threads live as
   long as the daemon. *)
let cpu_ms t =
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  let tasks = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc tid ->
      match
        Scanf.sscanf_opt (read_file (Filename.concat (Filename.concat dir tid) "schedstat")) "%Ld"
          Fun.id
      with
      | Some ns -> acc +. (Int64.to_float ns /. 1e6)
      | None -> acc)
    0. tasks

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  String.split_on_char '\n' status
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:0.

(* --- the closed-loop load --------------------------------------------- *)

type served = {
  attempted : int;
  latencies : float array;  (** ms, one per answered request *)
  windows : (float * float) array;
      (** per window of [w.window] consecutive requests: wall ms, daemon
          CPU ms *)
  rss_mb : float;
      (** the daemon's peak resident set when the [rss_window]th window
          closed, or at the end of a shorter run *)
  failures : string list;
  bodies : (int * string) list;
      (** (key, result bytes) of answers whose key had no known answer *)
}

(* Read at a fixed request count, peak memory does not grow with the
   host's speed (the store's index grows with every new key). *)
let rss_window = 5

(* [drive d w ~seed ~first ~count ~seconds ~known] is the load: closed-loop
   callers, one per connection, all served by this one thread.  A caller
   sends request [next] of [w]'s sequence (a counter shared by all, from
   [first]) and sends its next one only after that answer arrived, until
   [count] were sent or [seconds] have passed.  Every answer is checked:
   the echoed id, [ok], the provenance the workload expects, and the
   result bytes against [known] when the key has a known answer; the
   others are returned for validation. *)
let drive d (w : Workload.t) ~seed ~first ~count ~seconds ~known =
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (Float.min seconds 1e6 *. 1e9)) in
  let conns = Array.init w.Workload.connections (fun _ -> connect d.port) in
  (* per connection: the request in flight, its key and when it was sent *)
  let inflight = Array.make (Array.length conns) None in
  let lats = ref (Array.make 4096 0.) and n = ref 0 in
  let windows = ref [] and mark = ref (t0, cpu_ms d) and answered = ref 0 in
  let rss = ref None in
  let failures = ref [] and bodies = ref [] in
  let fail msg = failures := msg :: !failures in
  let next = ref first in
  let rec send j =
    inflight.(j) <- None;
    if !next < first + count && Int64.compare (now_ns ()) deadline < 0 then begin
      let i = !next in
      incr next;
      let key = w.Workload.key ~seed i in
      let frame = Workload.frame_of { (w.Workload.request key) with id = i } in
      let s = now_ns () in
      match write_all conns.(j).fd frame 0 with
      | () -> inflight.(j) <- Some (i, key, s)
      | exception e -> broken j i e
    end
  and broken j i e =
    fail (Printf.sprintf "request %d: %s" i (Printexc.to_string e));
    close conns.(j);
    conns.(j) <- connect d.port;
    count_answer ();
    send j
  and count_answer () =
    incr answered;
    if !answered mod w.Workload.window = 0 then begin
      let t = now_ns () and cpu = cpu_ms d in
      let t', cpu' = !mark in
      windows := (ms_between t' t, cpu -. cpu') :: !windows;
      mark := (t, cpu);
      if !answered = rss_window * w.Workload.window then rss := Some (peak_rss_mb d)
    end
  in
  let answer j (i, key, s) =
    match recv conns.(j) with
    | exception e -> broken j i e
    | doc ->
      let ms = ms_between s (now_ns ()) in
      if !n = Array.length !lats then lats := Array.append !lats (Array.make !n 0.);
      !lats.(!n) <- ms;
      incr n;
      (match Workload.envelope ~id:i doc with
       | Error msg -> fail (Printf.sprintf "request %d: %s" i msg)
       | Ok (prov, _) when not (w.Workload.provenance key prov) ->
         fail (Printf.sprintf "request %d (key %d): provenance %s" i key prov)
       | Ok (_, body) -> (
         match Hashtbl.find_opt known key with
         | Some b when String.equal b body -> ()
         | Some _ -> fail (Printf.sprintf "request %d (key %d): answer differs from the known one" i key)
         | None -> bodies := (key, body) :: !bodies));
      count_answer ();
      send j
  in
  Array.iteri (fun j _ -> send j) conns;
  let waiting () =
    List.filter_map (fun j -> Option.map (fun _ -> conns.(j).fd) inflight.(j))
      (List.init (Array.length conns) Fun.id)
  in
  let rec loop () =
    match waiting () with
    | [] -> ()
    | fds ->
      let ready, _, _ = Unix.select fds [] [] (-1.) in
      Array.iteri
        (fun j c ->
          match inflight.(j) with
          | Some f when List.mem c.fd ready -> answer j f
          | _ -> ())
        conns;
      loop ()
  in
  loop ();
  Array.iter close conns;
  {
    attempted = !next - first;
    latencies = Array.sub !lats 0 !n;
    windows = Array.of_list (List.rev !windows);
    rss_mb = (match !rss with Some r -> r | None -> peak_rss_mb d);
    failures = !failures;
    bodies = !bodies;
  }

(* Cache (hits, misses) from the daemon's [stats] answer. *)
let cache_counters port =
  let c = connect port in
  let doc = rpc c (simple_frame "stats") in
  close c;
  let module J = Ts_analysis.Json in
  let get k cache = Option.bind (J.member k cache) J.to_int_opt in
  match
    Option.bind (Result.to_option (J.of_string doc)) (J.member "result")
    |> Fun.flip Option.bind (J.member "cache")
  with
  | Some cache -> (
    match (get "hits" cache, get "misses" cache) with
    | Some h, Some m -> (h, m)
    | _ -> failwith ("stats answer without cache counters: " ^ doc))
  | None -> failwith ("stats answer unreadable: " ^ doc)
