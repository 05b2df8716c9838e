(** Process-wide, domain-safe instrumentation on one substrate: spans,
    live progress records, counters, gauges and latency histograms,
    with a summary tree, a Chrome trace exporter, metrics snapshots and
    live progress sinks.

    The synthesis flow is a multi-phase pipeline — FT-CPG generation,
    policy/mapping optimization, conditional scheduling, fault-injection
    validation — fanned out over the {!Par} domain pool. This module
    makes a run observable while it runs and after it ends: every phase
    opens a {e span}, engines {!emit} typed {e progress} records
    (incumbent improvements, validation progress, corpus outcomes),
    hot components bump {e counters} (atomic ints), and the pool
    reports fan-out sizes and queue waits into {e histograms}.

    {b One ring per domain.} Span begin/end records and progress records
    go into the calling domain's bounded single-producer ring
    (registered once via [Domain.DLS]; recording never takes a lock).
    One atomic ticket stamps every record: a span's id is the ticket of
    its begin record, and tickets give the global delivery order.

    {b One drain.} {!drain} moves every ring's pending records out:
    span begin/end records are appended to their domain's span log
    (read by {!dump}, {!pp_summary} and {!to_chrome_json}, which drain
    first), and progress records are handed to the registered sinks in
    ticket order. Drains run only outside [Par] workers: at phase edges,
    optimizer iterations and validation batches, from the
    [Par.map_live] poll loop, and from every exporter.

    {b Never block; drop and count.} A record that finds its domain's
    ring full is dropped and counted in {!dropped} — an emitter never
    waits on a consumer. Outside the worker pool a full ring is first
    drained in place, so single-domain runs lose nothing. Every span
    that begins reserves the slot of its end record, so span logs stay
    balanced even when records are dropped: a span whose begin record
    does not fit is dropped whole.

    {b Pay for what you use.} One process-wide atomic flag, off by
    default, gates everything: while disabled, {!with_span},
    {!with_phase}, {!emit} and the counter updates cost one atomic load
    and a branch. Nothing is allocated and no clock is read until
    {!enable} is called. Guard payload construction with {!enabled}.

    {b Determinism.} Telemetry observes; it never steers. No RNG is
    consumed, no ordering is changed, no result depends on a recorded
    value — search trajectories are bit-identical with telemetry on or
    off and for every [jobs] value (pinned by [test/test_telemetry.ml]).
    The record stream itself is not deterministic: worker interleaving
    and timestamps vary between runs.

    {b Clock.} Timestamps come from [Unix.gettimeofday], clamped to be
    non-decreasing per domain; span nesting therefore always has
    children contained within their parents. Progress records carry the
    same clock relative to the last {!enable}. *)

(** {1 Recording switch} *)

val enable : unit -> unit
(** Start recording. Switching on also restarts the {!now} clock. *)

val disable : unit -> unit

val enabled : unit -> bool
(** True between {!enable} and {!disable}. Read this before computing
    anything that exists only to be recorded (e.g. a [List.length] fed
    to {!add}). *)

val reset : unit -> unit
(** Drop all recorded and pending records, zero every counter, gauge,
    histogram and {!dropped} (registrations and sinks survive). Call
    only while no other domain is recording — i.e. between [Par]
    fan-outs. *)

val now : unit -> float
(** Seconds since {!enable}; [0.] while disabled. Engines take [now]
    deltas for {!Incumbent} wall times. *)

val in_worker : unit -> bool
(** True on a domain currently running [Par] pool tasks, where {!drain}
    is a no-op. [Par] owns the flag through {!set_in_worker}; read it
    as [Par.in_worker]. *)

val set_in_worker : bool -> unit

(** {1 Spans} *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Attribute values attached to a span. *)

val with_span :
  ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span: a begin record goes
    into the calling domain's ring (with a fresh span id and the id of
    the enclosing span as parent), and the matching end record follows
    when [f] returns {e or raises} (the exception is re-raised). With
    telemetry disabled this is [f ()] after one branch. [cat] is the
    Chrome trace category (defaults to ["ftes"]); [args] become the
    trace event's arguments. *)

(** {1 Live progress} *)

type payload =
  | Phase_start of { phase : string }
  | Phase_finish of { phase : string; wall_s : float }
  | Incumbent of {
      source : string;
          (** Which engine improved: ["tabu"], ["descent.policy"],
              ["descent.remap"], ["checkpoint"]. *)
      cost : float;  (** The new best objective (schedule length). *)
      evals : int;  (** Design evaluations performed so far by that
                        engine invocation. *)
      wall_s : float;  (** Seconds since the engine invocation began. *)
    }
  | Validation_progress of {
      backend : string;  (** ["explicit"] | ["symbolic"]. *)
      cleared : int;
          (** Scenarios replayed (explicit) or cube families processed
              (symbolic) so far. *)
      total : int;
          (** Scenario count for the explicit backend; [0] for the
              symbolic backend (the cube count is not known up
              front). *)
    }
  | Corpus_outcome of {
      id : string;
      ok : bool;
      verdict : string;
      wall_ms : float;
    }
  | Gc_sample of {
      phase : string;
      minor_words : float;
      major_words : float;
      heap_mb : float;
      major_collections : int;
    }  (** [Gc.quick_stat] deltas are not taken — these are the
           process-lifetime values at the end of [phase]. *)
  | Worker_start of { member : string }
      (** A portfolio member began running (label is the member's
          configuration name, e.g. ["MXR#0"] or ["LNS#4"]). *)
  | Worker_finish of { member : string; cost : float; wall_s : float }
      (** A portfolio member finished with its final objective and its
          own wall clock. Together with the ["portfolio:*"]-sourced
          {!Incumbent} records these let [--progress] show the race
          live. *)

type progress = {
  seq : int;  (** The record's ticket: global emission order. *)
  t : float;  (** Seconds since {!enable}. *)
  dom : int;  (** Emitting domain id. *)
  payload : payload;
}

val emit : payload -> unit
(** Non-blocking append to the calling domain's ring; drops (and
    counts) when the ring is full; no-op while disabled. *)

val with_phase :
  ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_phase name f] is {!with_span} [name f] that also delivers
    [Phase_start] and [Phase_finish] records, samples the GC
    ([Gc_sample]) at the end of the phase, and drains on both edges.
    [f ()] after one branch when disabled. *)

val dropped : unit -> int
(** Records dropped since the last {!reset} because a ring was full. *)

val ring_capacity : int
(** Slots in each domain's ring. *)

(** {1 Sinks and draining} *)

val add_sink : (progress -> unit) -> int
(** Register a sink; returns a handle for {!remove_sink}. Sinks run on
    the draining domain in ticket order. A sink must not record. *)

val remove_sink : int -> unit

val drain : unit -> unit
(** Move every pending record out of the rings: spans into the span
    logs, progress records to the sinks. No-op inside a [Par] worker and
    while another drain is in flight, so emitters and other drain
    points never wait. Long fan-outs deliver at the next drain after
    they return, or live through [Par.map_live ~poll:drain]. *)

val progress_to_json : progress -> string
(** One JSON object (single line, no trailing newline): always [seq],
    [t], [dom] and a [type] tag (["phase-start"], ["phase-finish"],
    ["incumbent"], ["validation-progress"], ["corpus-outcome"],
    ["gc-sample"], ["worker-start"], ["worker-finish"]), plus the
    payload's fields. *)

val ndjson_sink : out_channel -> progress -> unit
(** A sink writing {!progress_to_json} plus a newline per record,
    flushed per record. Close the channel after a final {!drain}. *)

val progress_sink : out_channel -> progress -> unit
(** A human-oriented live renderer (one line per record, flushed):
    phases, incumbents with cost/evals/time, validation progress,
    corpus outcomes. Used by [ftes synthesize --progress] on stderr. *)

(** {1 Counters, gauges, histograms} *)

type counter

val counter : string -> counter
(** Intern the process-wide counter [name] (idempotent: the same name
    always yields the same cell). Registration is cheap and allowed
    while disabled — modules create their counters at init time. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** No-ops while disabled. *)

val counter_value : counter -> int

val set_gauge : string -> float -> unit
(** Record the latest value of a named gauge (no-op while disabled). *)

type histogram

val histogram : ?bounds:float array -> string -> histogram
(** Intern a fixed-bucket histogram. [bounds] are ascending bucket upper
    bounds (default: exponential decades from 1e-6 to 1e2, suited to
    latencies in seconds); values above the last bound land in an
    overflow bucket.
    @raise Invalid_argument if [bounds] is empty or not strictly
    increasing, or if the name was registered with different bounds. *)

val observe : histogram -> float -> unit
(** No-op while disabled. *)

(** {1 Inspection (tests, exporters)} *)

type event =
  | Begin of {
      id : int;
      parent : int;  (** 0 when the span is a root of its domain. *)
      name : string;
      cat : string;
      ts : float;  (** seconds, non-decreasing within a domain *)
      args : (string * value) list;
    }
  | End of { id : int; ts : float }

val dump : unit -> (int * event list) list
(** Drain, then the span log per domain (domain id, events in recording
    order), sorted by domain id. *)

val counters : unit -> (string * int) list
(** All registered counters with their current values, sorted by name. *)

val gauges : unit -> (string * float) list
(** Gauges that have been set since the last {!reset}, sorted by name. *)

(** {1 Exporters} *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable report: the span tree aggregated by name within
    parent (total wall time, self time, call count), then counters,
    gauges and histograms. Histogram percentiles are approximated from
    the bucket midpoints with {!Stats.percentile}. *)

val to_chrome_json : unit -> string
(** The span logs as Chrome trace-event JSON (array format): one
    [B]/[E] pair per span with [tid] = domain id (one track per domain),
    thread-name metadata per track, and one [C] (counter) sample per
    registered counter at the end of the trace. Load the result in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

val write_chrome_trace : string -> unit
(** {!to_chrome_json} written to a file. *)

val to_metrics_json : unit -> string
(** The current counters, gauges and histograms as one JSON object:
    [{"counters": {name: int, ...}, "gauges": {name: float, ...},
    "histograms": {name: {"buckets": [{"le": bound|"+Inf", "count": n},
    ...], "total": n, "sum": f}, ...}}]. Machine-readable companion to
    {!pp_summary} — no parsing of the human report needed. Counters at
    zero are included so consumers see a stable key set. *)

val pp_prometheus : Format.formatter -> unit -> unit
(** The same snapshot in the Prometheus text exposition format
    (version 0.0.4): counters as [counter], gauges as [gauge],
    histograms as cumulative [histogram] series with [le] labels,
    [_sum] and [_count]. Metric names are the registered names with
    every non-alphanumeric character mapped to ['_'] and an [ftes_]
    prefix. *)
