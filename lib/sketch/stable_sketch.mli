(** Indyk's p-stable ℓp sketch for p ∈ (0, 2] ([19]; Lemma 2.1 of the
    paper).

    The implicit sketching matrix has i.i.d. symmetric p-stable entries,
    generated on demand from a seed so the matrix is never materialised.
    For y = Sx each |y_r| is distributed as ‖x‖p·|stable|, so the median
    of |y_r| over Θ(1/ε² · log 1/δ) rows, normalised by the distribution's
    absolute median, is a (1±ε) estimate of ‖x‖p. Linear, like {!Ams}. *)

type t

val create : Matprod_util.Prng.t -> p:float -> eps:float -> groups:int -> t
(** [groups] plays the role of the log(1/δ) repetition factor:
    rows = Θ(1/ε²)·groups. Requires 0 < p <= 2. *)

val create_rows : Matprod_util.Prng.t -> p:float -> rows:int -> t

val size : t -> int

val sketch : t -> (int * int) array -> float array
val empty : t -> float array
val add_scaled : t -> dst:float array -> coeff:int -> float array -> unit

(** {1 Plan/apply} — the implicit stable matrix materialised for the whole
    key domain; bit-identical to {!sketch}, and (unlike the lazy column
    cache) read-only, hence safe under multi-domain fan-out
    (docs/PERFORMANCE.md). *)

type plan

val plan : t -> dim:int -> plan
val sketch_with_plan : t -> plan -> (int * int) array -> float array

val estimate : t -> float array -> float
(** Estimate of ‖x‖p. *)

val estimate_pow : t -> float array -> float
(** Estimate of ‖x‖p^p. *)

val entry : t -> row:int -> int -> float
(** Entry of the implicit p-stable matrix; deterministic per (row, index). *)
