(** Scoped metrics: counters, gauges, and log-scale histograms recorded
    into a tree of scopes.

    Disabled by default so uninstrumented callers (and hot sketch loops)
    pay only a boolean test. A handle names a metric ([name{label}]); the
    cell it updates lives in the {e current} scope — the root, unless the
    caller is running under {!in_scope} (per party, per supervisor
    attempt, per engine group). Handles memoize their last resolution, so
    repeated increments in one scope cost one generation check; {!reset}
    zeroes the root and drops child scopes without invalidating handles,
    so modules may hold handles at top level.

    Naming scheme (see docs/OBSERVABILITY.md): snake_case metric names,
    optional [~label] for a per-site breakdown, [_ns] suffix for
    nanosecond timing histograms. Core metrics emitted by the stack:
    [bytes_sent{label}], [messages_sent], [telemetry_bytes],
    [hash_evals], [prng_draws], [sketch_cells_touched],
    [sketch_build_ns{kind}], [sketch_query_ns{kind}], [codec_encode_ns],
    [codec_decode_ns]. *)

type counter
type gauge
type histogram

val enabled : unit -> bool
val set_enabled : bool -> unit

val in_scope : string -> (unit -> 'a) -> 'a
(** Run the thunk with metrics recording into the named child of the
    current scope (created on first use; re-entering a name reuses its
    scope). Nestable and exception-safe. A no-op when disabled. *)

type scope

val current_scope : unit -> scope
val set_scope : scope -> unit
(** Save and restore the current scope by hand, for code that leaves a
    dynamic extent without unwinding it: the engine's scheduler swaps a
    suspended exchange group's scope out and back in, so its counters
    still land in [group-<family>]. *)

val counter : ?label:string -> string -> counter
(** A handle on metric [name] or ["name{label}"]; the underlying cell is
    per-scope, found-or-created on first use in each scope. *)

val incr : counter -> unit
val incr_by : counter -> int -> unit

val value : counter -> int
(** The counter's value in the {e current} scope. *)

val total : ?label:string -> string -> int
(** Sum of the named counter over every scope in the tree. *)

val gauge : ?label:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float option
(** [None] until the first (enabled) [set_gauge] in the current scope. *)

val histogram : ?label:string -> string -> histogram

val observe : histogram -> float -> unit
(** Record one sample. Buckets are log-scale: bucket [b] counts samples in
    [[2^b, 2^(b+1))], with everything below 1 in bucket 0. *)

val observe_ns : histogram -> int -> unit

val timed : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall time in nanoseconds; when the
    registry is disabled this is just the call, no clock reads. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h q] estimates the q-quantile (q in [[0,1]]) of the
    current scope's samples from the log2 buckets: linear interpolation
    inside the bucket holding the ceil(q*count)-th sample, clamped to the
    observed [[min, max]]. Monotone in q; exact when all samples are
    equal; 0 when empty. Raises [Invalid_argument] for q outside [0,1]. *)

val percentile_of :
  count:int ->
  min:float ->
  max:float ->
  buckets:(int * int) list ->
  float ->
  float
(** The same estimator on raw histogram data: [buckets] is the ascending
    [(bucket, count)] list as exported under ["log2_buckets"]. Used by
    [matprod report] to summarize persisted snapshots. *)

val reset : unit -> unit
(** Zero every root metric and drop all child scopes; existing handles
    stay valid. *)

val snapshot : unit -> Json.t
(** Deterministically ordered (sorted by key) JSON object:
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}], plus a
    ["scopes"] object (children in creation order, same shape,
    recursive) when child scopes exist. Zero-valued counters and
    never-set gauges are omitted; histograms carry [p50]/[p90]/[p99]
    estimates. *)
