(** Small numerical helpers shared by estimators, tests, and the benchmark
    harness: order statistics, summary statistics, and distribution
    distance measures used to validate the samplers. *)

val mean : float array -> float
(** Arithmetic mean; raises [Invalid_argument] on the empty array. *)

val variance : float array -> float
(** Population variance (divides by n). *)

val median : float array -> float
(** Median without mutating the input: {!median_in_place} on a copy. *)

val median_in_place : float array -> float
(** Median of [xs], found by selection in place, so [xs] is left
    permuted. Elements are ordered by [Float.compare] (NaN below every
    other value). Odd lengths return the middle order statistic; even
    lengths average the two central ones, lower plus upper. Where a rank
    falls among values that compare equal but differ in bits (0.0 and
    −0.0, NaNs with different payloads), which of them is returned is
    unspecified: the result equals a sort's up to [Float.compare], and
    bit for bit when no such ties straddle the rank. Expected O(n) time,
    O(n log n) at worst; no float is boxed. *)

val quantile : float array -> float -> float
(** [quantile xs q] for q ∈ [0,1]: the nearest-rank order statistic,
    index round(q·(n−1)) of the sorted order, selected on a copy; ties
    as for {!median_in_place}. *)

val median_of_means : float array -> groups:int -> float
(** Split [xs] into [groups] contiguous groups, take each group's mean,
    return the median of those means — the standard boosting used by AMS
    estimators. [groups] is clamped to [Array.length xs]. *)

val total_variation : float array -> float array -> float
(** Total-variation distance between two discrete distributions given as
    (not necessarily normalised) non-negative weight vectors of equal
    length. *)

val chi_square : observed:int array -> expected:float array -> float
(** Pearson χ² statistic; [expected] entries must be positive. *)

val relative_error : actual:float -> estimate:float -> float
(** |estimate − actual| / |actual|, with the convention 0/0 = 0 and
    x/0 = ∞ for x ≠ 0. *)

val approx_factor : actual:float -> estimate:float -> float
(** Symmetric approximation factor max(actual/estimate, estimate/actual)
    for positive inputs; ∞ if exactly one of them is 0; 1 if both are. *)

val log2 : float -> float

val float_sum : float array -> float
(** Kahan-compensated sum. *)
