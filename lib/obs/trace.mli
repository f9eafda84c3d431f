(** Span-based tracer with cross-link trace context.

    Disabled by default: {!with_span} then costs one boolean test and a
    direct call of the thunk, so instrumented hot paths pay ~nothing.
    When enabled, spans nest via a stack (each records its parent id and
    depth) and are buffered in memory until an exporter or {!reset}.

    Every span also carries {b stable} ids: a [trace_id] derived from the
    ctx seed via splitmix64, and a [sid] mixing the trace id with the
    span's start ordinal. Two runs at the same seed produce identical ids
    span for span, so traces from different processes (or a crashed run
    and its resumption) can be joined offline.

    Span names are dot-separated [component.phase] (see
    docs/OBSERVABILITY.md); per-message channel events reuse the
    transcript label as the ["label"] attribute. *)

type context = { trace_id : int64; span_id : int64 }
(** The active trace and innermost open span, as carried across links. *)

type span = {
  id : int;  (** 1-based, in start order. *)
  sid : int64;  (** Stable span id: [splitmix64 (trace_id lxor id)]. *)
  trace_id : int64;  (** Stable trace id; [0L] outside {!with_trace}. *)
  parent : int option;
  depth : int;
  name : string;
  instant : bool;  (** [true] for {!event} records. *)
  attrs : (string * Json.t) list;
  start_ns : int;
  dur_ns : int;  (** 0 for instant events. *)
  alloc_minor_w : int;
      (** Minor-heap words allocated while the span was open
          ([Gc.counters] delta — the precise O(1) counters); 0 under the
          fake clock. *)
  alloc_major_w : int;
}

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val splitmix64 : int64 -> int64
(** The splitmix64 finalizer used for all stable-id derivation. *)

val trace_id_of_seed : int -> int64
val trace_id : unit -> int64
(** The active trace id ([0L] when no {!with_trace} is in scope). *)

val hex_id : int64 -> string
(** 16-digit zero-padded lowercase hex, the wire/JSON form of ids. *)

val with_trace : seed:int -> (unit -> 'a) -> 'a
(** Run the thunk with the trace id derived from [seed] active. Nestable;
    restores the previous trace id on exit (exception-safe). A no-op when
    tracing is disabled. *)

val current_context : unit -> context
(** The active trace id and the innermost open span's id ([0L] when no
    span is open). *)

val context_frame_length : int
(** Byte length of a serialized context frame (18). *)

val context_frame : unit -> string
(** The current context as an out-of-band wire frame: ["TC"] magic then
    trace id and span id, little-endian. [""] when tracing is disabled —
    callers account its length in the [telemetry_bytes] counter, never in
    the protocol transcript. *)

val parse_context_frame : string -> context option

val with_span : ?attrs:(string * Json.t) list -> name:string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a fresh span. Exception-safe: the span closes
    (and records its duration and allocation deltas) even if the thunk
    raises. *)

(** {1 Suspending open spans}

    A fiber that suspends inside open spans (the engine's exchange
    groups, at each speaking turn) takes its frames off the stack and
    puts them back when it resumes. Spans opened meanwhile by others nest
    under whatever is open then, and the detached spans' durations and
    allocation deltas exclude the time they spent detached. *)

type frames

val no_frames : frames
(** Nothing detached. *)

val depth : unit -> int
(** Number of open spans on the stack. *)

val detach : base:int -> frames
(** Take off every open span above the bottom [base] ones (innermost
    first) and start their pause clock. *)

val attach : frames -> unit
(** Push detached spans back on top of the stack and stop their pause
    clock. *)

val event : ?attrs:(string * Json.t) list -> name:string -> unit -> unit
(** An instant (zero-duration) span at the current nesting level. *)

val spans : unit -> span list
(** Completed spans in start order. An open enclosing span is not included
    until it finishes. *)

val span_count : unit -> int

val reset : unit -> unit
(** Drop buffered spans (open spans on the stack survive and still record
    when they close). When no span is open the id counter also rewinds,
    so a fresh gallery at the same seed reproduces the same stable
    sids. *)

val to_json : span -> Json.t

val write_jsonl : string -> unit
(** Write buffered spans, one JSON object per line, to a file. *)

val chrome_json : unit -> Json.t

val write_chrome : string -> unit
(** Write buffered spans as a Chrome trace-event JSON document (loadable
    in Perfetto / chrome://tracing): complete events (ph ["X"]) for spans,
    instants (ph ["i"]) for events, timestamps in microseconds, stable ids
    and allocation deltas under ["args"]. *)
