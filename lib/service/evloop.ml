(* Readiness event loop.  See the .mli for the design contract.

   Single-owner discipline: every connection, buffer and table in here is
   touched only by the domain running [run].  The one cross-domain door is
   [post]: a mutex-guarded mailbox plus a self-pipe byte to make a
   blocked [select] return.  The externally readable gauges are atomics. *)

module Obs = Ts_obs.Obs

let poll_interval = 0.1
(* stop-flag latency ceiling, as in the old accept loop *)

let drain_grace = 5.0
(* seconds granted after [stop] for parked answers to arrive and flush *)

let initial_rbuf = 8 * 1024
let rbuf_cap = Frame.max_frame_bytes + 16
(* one max frame + its header always fits *)

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;  (* reusable read buffer *)
  mutable rpos : int;  (* parse cursor into rbuf *)
  mutable rlen : int;  (* valid bytes in rbuf *)
  mutable obuf : Bytes.t;  (* batched outgoing bytes *)
  mutable opos : int;  (* written prefix of obuf *)
  mutable olen : int;  (* valid bytes in obuf *)
  mutable inflight : bool;  (* a request is parked in the pool *)
  mutable no_more_reads : bool;  (* EOF seen or stream desynchronized *)
  mutable closed : bool;
}

type reply =
  | Now of string
  | Later

type t = {
  lsock : Unix.file_descr;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mailbox : (conn * string) Queue.t;
  mbox_lock : Mutex.t;
  mbox_loc : string;  (* race-detector location of the mailbox *)
  n_open : int Atomic.t;
  n_iterations : int Atomic.t;
  n_accepted : int Atomic.t;
}

let create ~lsock =
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  Unix.set_nonblock lsock;
  {
    lsock;
    pipe_r;
    pipe_w;
    conns = Hashtbl.create 64;
    mailbox = Queue.create ();
    mbox_lock = Mutex.create ();
    mbox_loc = Obs.fresh_loc "evloop.mailbox";
    n_open = Atomic.make 0;
    n_iterations = Atomic.make 0;
    n_accepted = Atomic.make 0;
  }

let open_conns t = Atomic.get t.n_open
let iterations t = Atomic.get t.n_iterations
let accepted t = Atomic.get t.n_accepted

let post t conn response =
  (* cross-domain door: pool workers push, the loop drains — logged for
     the vector-clock race detector like the cache shards are *)
  Obs.access ~loc:t.mbox_loc Obs.Write ~atomic:true;
  Mutex.lock t.mbox_lock;
  Queue.push (conn, response) t.mailbox;
  Mutex.unlock t.mbox_lock;
  (* a full pipe already guarantees a pending wakeup *)
  match Unix.write t.pipe_w (Bytes.make 1 '!') 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
    -> ()

(* ---- per-connection buffer plumbing ---------------------------------- *)

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    Hashtbl.remove t.conns conn.fd;
    Atomic.decr t.n_open;
    Obs.Metrics.gauge "service.loop.connections" (Atomic.get t.n_open);
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let out_pending conn = conn.olen > conn.opos

(* Append one framed response to the connection's output batch. *)
let send conn payload =
  let header = string_of_int (String.length payload) in
  let need = conn.olen + String.length header + 1 + String.length payload in
  if Bytes.length conn.obuf < need then begin
    let cap = ref (max 4096 (Bytes.length conn.obuf)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit conn.obuf 0 fresh 0 conn.olen;
    conn.obuf <- fresh
  end;
  Bytes.blit_string header 0 conn.obuf conn.olen (String.length header);
  conn.olen <- conn.olen + String.length header;
  Bytes.set conn.obuf conn.olen '\n';
  conn.olen <- conn.olen + 1;
  Bytes.blit_string payload 0 conn.obuf conn.olen (String.length payload);
  conn.olen <- conn.olen + String.length payload

(* Flush as much batched output as the socket accepts, in one syscall per
   readiness event.  Returns [false] when the connection died. *)
let do_write t conn =
  if conn.closed || not (out_pending conn) then true
  else
    match Unix.write conn.fd conn.obuf conn.opos (conn.olen - conn.opos) with
    | k ->
      conn.opos <- conn.opos + k;
      if conn.opos = conn.olen then begin
        conn.opos <- 0;
        conn.olen <- 0
      end;
      true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> true
    | exception Unix.Unix_error _ ->
      close_conn t conn;
      false

(* A connection that will never produce another request dies as soon as
   nothing is owed to it. *)
let maybe_close t conn =
  if
    (not conn.closed) && conn.no_more_reads && (not conn.inflight)
    && not (out_pending conn)
  then close_conn t conn

let compact conn =
  if conn.rpos = conn.rlen then begin
    conn.rpos <- 0;
    conn.rlen <- 0
  end
  else if conn.rpos > 0 then begin
    Bytes.blit conn.rbuf conn.rpos conn.rbuf 0 (conn.rlen - conn.rpos);
    conn.rlen <- conn.rlen - conn.rpos;
    conn.rpos <- 0
  end

(* Process every complete frame sitting in the read buffer, stopping when
   a request is parked in the pool (ordering) or the stream breaks. *)
let rec pump t conn ~on_payload ~on_frame_error =
  if conn.closed || conn.inflight || conn.no_more_reads then ()
  else
    match Frame.parse conn.rbuf ~pos:conn.rpos ~len:conn.rlen with
    | `Need_more -> compact conn
    | `Error e ->
      (* the stream cannot be re-synchronized: best-effort answer, then
         no further reads; the close happens once the answer flushes *)
      (match on_frame_error e with Some doc -> send conn doc | None -> ());
      conn.no_more_reads <- true
    | `Frame (off, n) ->
      conn.rpos <- off + n;
      let payload = Bytes.sub_string conn.rbuf off n in
      (match on_payload conn payload with
       | Now doc ->
         send conn doc;
         pump t conn ~on_payload ~on_frame_error
       | Later -> conn.inflight <- true)

let do_read t conn ~on_payload ~on_frame_error =
  if conn.closed then ()
  else begin
    (* make room: slide the parsed prefix out, then grow up to the cap *)
    if conn.rlen = Bytes.length conn.rbuf then compact conn;
    if conn.rlen = Bytes.length conn.rbuf && Bytes.length conn.rbuf < rbuf_cap
    then begin
      let fresh = Bytes.create (min rbuf_cap (2 * Bytes.length conn.rbuf)) in
      Bytes.blit conn.rbuf 0 fresh 0 conn.rlen;
      conn.rbuf <- fresh
    end;
    let room = Bytes.length conn.rbuf - conn.rlen in
    if room > 0 then begin
      match Unix.read conn.fd conn.rbuf conn.rlen room with
      | 0 ->
        (* EOF: never read again; drop now unless an answer is still owed
           or buffered *)
        conn.no_more_reads <- true;
        if (not conn.inflight) && not (out_pending conn) then close_conn t conn
      | k ->
        conn.rlen <- conn.rlen + k;
        pump t conn ~on_payload ~on_frame_error
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_conn t conn
    end
  end

let accept_ready t =
  let rec go () =
    match Unix.accept ~cloexec:true t.lsock with
    | fd, _peer ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let conn =
        {
          fd;
          rbuf = Bytes.create initial_rbuf;
          rpos = 0;
          rlen = 0;
          obuf = Bytes.create initial_rbuf;
          opos = 0;
          olen = 0;
          inflight = false;
          no_more_reads = false;
          closed = false;
        }
      in
      Hashtbl.replace t.conns fd conn;
      Atomic.incr t.n_open;
      Atomic.incr t.n_accepted;
      Obs.Metrics.gauge "service.loop.connections" (Atomic.get t.n_open);
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let drain_mailbox t ~on_payload ~on_frame_error =
  (* swallow the wakeup bytes first so a post between drain and select
     still leaves a byte in the pipe *)
  let sink = Bytes.create 256 in
  let rec slurp () =
    match Unix.read t.pipe_r sink 0 256 with
    | 256 -> slurp ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  slurp ();
  let pending = Queue.create () in
  Obs.access ~loc:t.mbox_loc Obs.Read ~atomic:true;
  Mutex.lock t.mbox_lock;
  Queue.transfer t.mailbox pending;
  Mutex.unlock t.mbox_lock;
  Queue.iter
    (fun (conn, response) ->
      if not conn.closed then begin
        conn.inflight <- false;
        send conn response;
        (* the parked stream may hold complete frames already *)
        pump t conn ~on_payload ~on_frame_error;
        if do_write t conn then maybe_close t conn
      end)
    pending

let run t ~stop ~on_payload ~on_frame_error =
  let drain_until = ref None in
  let finished () =
    if not (stop ()) then false
    else begin
      let deadline =
        match !drain_until with
        | Some d -> d
        | None ->
          let d = Unix.gettimeofday () +. drain_grace in
          drain_until := Some d;
          d
      in
      let quiescent =
        Hashtbl.fold
          (fun _ conn acc -> acc && (not conn.inflight) && not (out_pending conn))
          t.conns true
      in
      quiescent || Unix.gettimeofday () > deadline
    end
  in
  let rec loop () =
    if finished () then ()
    else begin
      Atomic.incr t.n_iterations;
      Obs.Metrics.incr "service.loop.iterations";
      let stopping = stop () in
      let rfds = ref [ t.pipe_r ] in
      if not stopping then rfds := t.lsock :: !rfds;
      let wfds = ref [] in
      Hashtbl.iter
        (fun fd conn ->
          if
            (not stopping) && (not conn.no_more_reads)
            && (conn.rlen < Bytes.length conn.rbuf || conn.rpos > 0
                (* a full buffer holding one incomplete frame is not
                   backpressure: do_read can still grow it toward the
                   frame cap, so the fd must stay in the read set or the
                   connection deadlocks on any frame over the initial
                   buffer size *)
               || Bytes.length conn.rbuf < rbuf_cap)
          then rfds := fd :: !rfds;
          if out_pending conn then wfds := fd :: !wfds)
        t.conns;
      (match Unix.select !rfds !wfds [] poll_interval with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, writable, _ ->
         if List.memq t.pipe_r readable then
           drain_mailbox t ~on_payload ~on_frame_error;
         List.iter
           (fun fd ->
             if fd == t.lsock then accept_ready t
             else if fd != t.pipe_r then
               match Hashtbl.find_opt t.conns fd with
               | Some conn ->
                 do_read t conn ~on_payload ~on_frame_error;
                 (* opportunistic flush: the whole burst of direct answers
                    leaves in one write without waiting a select round *)
                 if do_write t conn then maybe_close t conn
               | None -> ())
           readable;
         List.iter
           (fun fd ->
             match Hashtbl.find_opt t.conns fd with
             | Some conn -> if do_write t conn then maybe_close t conn
             | None -> ())
           writable);
      loop ()
    end
  in
  Fun.protect
    (fun () -> loop ())
    ~finally:(fun () ->
      let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      List.iter (fun c -> close_conn t c) all;
      (try Unix.close t.lsock with Unix.Unix_error _ -> ());
      (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
      try Unix.close t.pipe_w with Unix.Unix_error _ -> ())
