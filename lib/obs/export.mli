(** Exporters over a drained {!Obs} event stream.

    Two formats, one source of truth:

    - {!chrome_trace} — Chrome [trace_event] JSON, loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}: spans
      become nested B/E intervals per domain track, instants become [i]
      markers, attributes become [args];
    - {!phase_table} / {!phases} — the human-readable phase-time
      breakdown printed by [tightspace trace] and the [--metrics] flags.

    Both are pure over the event list; untimed events (accesses, fork/join
    edges) are skipped. *)

(** [chrome_trace events] renders the span/instant events as a Chrome
    [trace_event] JSON document ([{"traceEvents": [...], ...}]).
    Timestamps are microseconds relative to the earliest event; each
    domain becomes one named thread track.  Unmatched opens (a span still
    open when tracing stopped) export as begin events without an end,
    which the viewers tolerate. *)
val chrome_trace : Obs.event list -> string

(** One row of the phase-time breakdown: all spans sharing a name,
    aggregated. *)
type phase = {
  name : string;
  cat : string;
  count : int;  (** spans with this name *)
  total_ms : float;  (** summed wall-clock duration *)
  mean_ms : float;
  max_ms : float;
}

(** Aggregate closed spans by name, sorted by descending total duration.
    Spans left open (no matching close) are dropped. *)
val phases : Obs.event list -> phase list

(** [phase_table events] is {!phases} rendered as an aligned text table
    with a percentage-of-total column. *)
val phase_table : Obs.event list -> string
