(** The JSON run summary over the tracer and the metrics registry
    (docs/OBSERVABILITY.md; trace files come from {!Trace.write_jsonl} and
    {!Trace.write_chrome}): one object combining caller-supplied fields
    with the metrics snapshot and span statistics. *)

val run_summary : ?extra:(string * Json.t) list -> unit -> Json.t
(** [{"schema": "matprod.run.v1", ...extra, "metrics": ..., "spans": n}].
    The [extra] association list is spliced in after the schema tag. *)

val print_run_summary : ?extra:(string * Json.t) list -> unit -> unit
(** {!run_summary} on one line to stdout. *)
