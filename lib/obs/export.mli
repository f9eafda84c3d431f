(** Exporters over the tracer and the metrics registry.

    Two output shapes (docs/OBSERVABILITY.md; trace files come from
    {!Trace.write_jsonl} and {!Trace.write_chrome}):
    - a human pretty-printer for metrics and the span tree;
    - a single-object JSON run summary combining caller-supplied fields
      with the metrics snapshot and span statistics. *)

val run_summary : ?extra:(string * Json.t) list -> unit -> Json.t
(** [{"schema": "matprod.run.v1", ...extra, "metrics": ..., "spans": n}].
    The [extra] association list is spliced in after the schema tag. *)

val print_run_summary : ?extra:(string * Json.t) list -> unit -> unit
(** {!run_summary} on one line to stdout. *)

val pp_metrics : Format.formatter -> unit -> unit
(** Pretty table of all non-zero metrics, sorted by name. *)

val pp_spans : Format.formatter -> unit -> unit
(** Indented span tree (depth = indentation) with durations. *)
