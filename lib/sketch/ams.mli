(** AMS ℓ2 sketch (Alon–Matias–Szegedy [4]).

    [rows_per_group × groups] counters; row r of the implicit sketching
    matrix holds 4-wise independent ±1 signs. The ℓ2² estimate is the
    median over groups of the mean over each group's rows of (Sx)_r² —
    a (1±ε) approximation when [rows_per_group = Θ(1/ε²)] with failure
    probability exp(−Θ(groups)).

    The sketch is a linear map: [sketch] of a sum is the coordinate-wise
    sum of sketches, which is what lets Algorithm 1 sketch every row of
    A·B from the sketches of the rows of B. *)

type t

val create : Matprod_util.Prng.t -> eps:float -> groups:int -> t
(** Sizes the sketch for (1+[eps]) estimates; the sketching matrix is drawn
    from the supplied (public) generator. *)

val create_rows : Matprod_util.Prng.t -> rows_per_group:int -> groups:int -> t
(** Explicit dimensions, for baselines and tests. *)

val size : t -> int
(** Total number of float counters = rows_per_group × groups. *)

val sketch : t -> (int * int) array -> float array
(** Sketch of a sparse integer vector given as (index, value) pairs.
    Indices must be non-negative. *)

val empty : t -> float array

(** {1 Plan/apply} — tabulated sign matrix; bit-identical to {!sketch}
    (docs/PERFORMANCE.md). *)

type plan

val plan : t -> dim:int -> plan
(** O(size·dim) sign evaluations, once per hash family. *)

val sketch_with_plan : t -> plan -> (int * int) array -> float array
(** Same result as {!sketch}; keys must lie in the plan's [0, dim). *)

val add_scaled : t -> dst:float array -> coeff:int -> float array -> unit
(** dst ← dst + coeff·src: the linear composition primitive. *)

val estimate_sq : t -> float array -> float
(** Estimate of ‖x‖₂². Never negative. *)

val entry : t -> row:int -> int -> float
(** The (row, index) entry of the implicit sketching matrix (±1); exposed
    for property tests. *)
