(** Bench-regression comparator: diff a [matprod.bench.v1] document
    against a committed baseline with per-metric tolerances.

    Rows are matched positionally (bench tables are deterministic in
    shape); string fields are identity and must match, numeric fields are
    checked against a tolerance chosen by key: timing-derived keys
    (substrings [_ns], [_ms], [per_sec], [speedup], [elapsed], [rate],
    [gated], [wall]) are ignored by default, everything else — bits,
    rounds, counts, errors — is a deterministic function of the seed and
    must match exactly. Callers can override per key, e.g. to gate a
    speedup with a loose relative tolerance. *)

type tolerance = Exact | Rel of float | Ignore

type mismatch = {
  row : int;
  mkey : string;
  baseline : float;
  current : float;
  delta_rel : float;  (** |current - baseline| / |baseline|. *)
  tol : tolerance;
}

type result = {
  experiment : string;
  compared : int;  (** Fields checked against a tolerance (or identity). *)
  ignored : int;  (** Fields skipped as timing noise. *)
  failures : mismatch list;
  errors : string list;  (** Structural drift: schema, row count, fields. *)
}

val ok : result -> bool

val compare_docs :
  ?overrides:(string * tolerance) list ->
  baseline:Json.t ->
  current:Json.t ->
  unit ->
  result

val pp_result : Format.formatter -> result -> unit
(** One line when ok; a multi-line failure report otherwise. *)
