(* Exporters over drained Obs event streams (see export.mli).  The JSON
   here is emitted directly into a Buffer: the observability layer sits
   below every other library in the repo, so it cannot borrow
   Ts_analysis.Json, and Chrome trace_event is flat enough not to need a
   value tree. *)

(* RFC 8259 string escaping. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_attr buf = function
  | Obs.Int i -> Buffer.add_string buf (string_of_int i)
  | Obs.Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | Obs.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Obs.Str s -> add_escaped buf s

let add_args buf attrs =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_escaped buf k;
      Buffer.add_char buf ':';
      add_attr buf v)
    attrs;
  Buffer.add_char buf '}'

(* --- Chrome trace_event ------------------------------------------------ *)

type open_info = {
  o_domain : int;
  o_name : string;
  o_cat : string;
}

let chrome_trace events =
  (* timestamps are microseconds relative to the earliest timed event *)
  let t0 =
    List.fold_left
      (fun acc e ->
        match e with
        | Obs.Span_open { t; _ } | Obs.Span_close { t; _ } | Obs.Instant { t; _ } ->
          Float.min acc t
        | _ -> acc)
      infinity events
  in
  let us t = (t -. t0) *. 1e6 in
  let opens : (int, open_info) Hashtbl.t = Hashtbl.create 64 in
  let domains : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Obs.Span_open { id; domain; name; cat; _ } ->
        Hashtbl.replace opens id { o_domain = domain; o_name = name; o_cat = cat };
        Hashtbl.replace domains domain ()
      | Obs.Instant { domain; _ } -> Hashtbl.replace domains domain ()
      | _ -> ())
    events;
  let buf = Buffer.create 4096 in
  let first = ref true in
  let emit f =
    if !first then first := false else Buffer.add_string buf ",\n    ";
    f buf
  in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n    ";
  (* one named track per domain, so the fan-out's load balance is visible *)
  Hashtbl.fold (fun d () acc -> d :: acc) domains []
  |> List.sort compare
  |> List.iter (fun d ->
         emit (fun buf ->
             Buffer.add_string buf
               (Printf.sprintf
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
                  d d)));
  List.iter
    (fun e ->
      match e with
      | Obs.Span_open { id; domain; name; cat; t; _ } ->
        ignore id;
        emit (fun buf ->
            Buffer.add_string buf "{\"ph\":\"B\",\"name\":";
            add_escaped buf name;
            Buffer.add_string buf ",\"cat\":";
            add_escaped buf cat;
            Buffer.add_string buf
              (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"ts\":%.1f}" domain (us t)))
      | Obs.Span_close { id; t; attrs } ->
        (match Hashtbl.find_opt opens id with
         | None -> () (* close without an open in this drain: drop *)
         | Some o ->
           emit (fun buf ->
               Buffer.add_string buf "{\"ph\":\"E\",\"name\":";
               add_escaped buf o.o_name;
               Buffer.add_string buf ",\"cat\":";
               add_escaped buf o.o_cat;
               Buffer.add_string buf
                 (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"ts\":%.1f," o.o_domain (us t));
               add_args buf attrs;
               Buffer.add_char buf '}'))
      | Obs.Instant { domain; name; cat; t } ->
        emit (fun buf ->
            Buffer.add_string buf "{\"ph\":\"i\",\"s\":\"t\",\"name\":";
            add_escaped buf name;
            Buffer.add_string buf ",\"cat\":";
            add_escaped buf cat;
            Buffer.add_string buf
              (Printf.sprintf ",\"pid\":1,\"tid\":%d,\"ts\":%.1f}" domain (us t)))
      | Obs.Access _ | Obs.Fork _ | Obs.Begin _ | Obs.End _ | Obs.Join _ ->
        (* untimed events have no place on a timeline *)
        ())
    events;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* --- phase-time breakdown ---------------------------------------------- *)

type phase = {
  name : string;
  cat : string;
  count : int;
  total_ms : float;
  mean_ms : float;
  max_ms : float;
}

let phases events =
  let open_t : (int, float * string * string) Hashtbl.t = Hashtbl.create 64 in
  let agg : (string, string * int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun e ->
      match e with
      | Obs.Span_open { id; name; cat; t; _ } -> Hashtbl.replace open_t id (t, name, cat)
      | Obs.Span_close { id; t; _ } ->
        (match Hashtbl.find_opt open_t id with
         | None -> ()
         | Some (t0, name, cat) ->
           Hashtbl.remove open_t id;
           let dur = (t -. t0) *. 1e3 in
           (match Hashtbl.find_opt agg name with
            | Some (_, n, total, mx) ->
              incr n;
              total := !total +. dur;
              if dur > !mx then mx := dur
            | None -> Hashtbl.replace agg name (cat, ref 1, ref dur, ref dur)))
      | _ -> ())
    events;
  Hashtbl.fold
    (fun name (cat, n, total, mx) acc ->
      {
        name;
        cat;
        count = !n;
        total_ms = !total;
        mean_ms = !total /. float_of_int !n;
        max_ms = !mx;
      }
      :: acc)
    agg []
  |> List.sort (fun a b -> compare b.total_ms a.total_ms)

let phase_table events =
  let ps = phases events in
  let buf = Buffer.create 512 in
  let grand = List.fold_left (fun acc p -> acc +. p.total_ms) 0.0 ps in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %-10s %7s %12s %11s %11s %6s\n" "phase" "cat" "count"
       "total ms" "mean ms" "max ms" "%");
  Buffer.add_string buf (String.make 90 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %-10s %7d %12.2f %11.3f %11.3f %6.1f\n" p.name p.cat
           p.count p.total_ms p.mean_ms p.max_ms
           (if grand > 0.0 then 100.0 *. p.total_ms /. grand else 0.0)))
    ps;
  if ps = [] then Buffer.add_string buf "(no closed spans captured)\n";
  Buffer.contents buf
