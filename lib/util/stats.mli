(** Small numerical helpers shared by estimators, tests, and the benchmark
    harness: order statistics, summary statistics, and distribution
    distance measures used to validate the samplers. *)

val mean : float array -> float
(** Arithmetic mean; raises [Invalid_argument] on the empty array. *)

val variance : float array -> float
(** Population variance (divides by n). *)

val median : float array -> float
(** Median without mutating the input (copies then sorts). Even lengths
    average the two central elements. *)

val quantile : float array -> float -> float
(** [quantile xs q] for q ∈ [0,1], nearest-rank on a sorted copy. *)

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
