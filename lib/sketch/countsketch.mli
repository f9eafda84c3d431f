(** CountSketch (Charikar–Chen–Farach-Colton), used here as the baseline
    the paper contrasts with in §1.3: applying CountSketch to the entries
    of C = A·B ([32]) costs Θ̃(n/ε²) communication in the two-party
    setting, with no advantage over the paper's protocols.

    [reps] rows × [buckets] columns of float counters; coordinate i lands
    in one bucket per row with a ±1 sign. Point queries return the median
    of the signed bucket contents. Linear. *)

type t

val create : Matprod_util.Prng.t -> buckets:int -> reps:int -> t

val size : t -> int
val empty : t -> float array
val update : t -> float array -> int -> int -> unit
val sketch : t -> (int * int) array -> float array
val add_scaled : t -> dst:float array -> coeff:int -> float array -> unit

(** {1 Plan/apply}

    [plan ~dim] precomputes the per-rep bucket/sign tables for every key
    in [0, dim) — O(reps·dim) hash evaluations, paid once per hash family.
    Applying the plan is pure table lookups: results are bit-identical to
    {!sketch} (see docs/PERFORMANCE.md for the contract). *)

type plan

val plan : t -> dim:int -> plan

val sketch_with_plan : t -> plan -> (int * int) array -> float array
(** Same result as {!sketch}, via the plan's tables. Keys must lie in
    the plan's [0, dim). *)

val sketch_into : t -> plan -> dst:float array -> (int * int) array -> unit
(** [sketch_into t p ~dst vec] zeroes [dst] (length {!size}) and fills it
    with the sketch of [vec] — zero per-row allocation; [dst] may be dirty
    from a previous row. *)

val query : t -> float array -> int -> float
(** Estimate of x_i; error ≤ ‖x‖₂/√buckets per rep, median-boosted. *)

val heavy_candidates : t -> float array -> dim:int -> threshold:float -> (int * float) list
(** All coordinates whose point-query estimate is ≥ [threshold] (linear
    scan over the [dim] coordinates — fine at this library's scales). *)
