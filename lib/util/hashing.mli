(** k-wise independent hash families over GF(2^31 − 1).

    A hash function is a random degree-(k−1) polynomial over {!Field31};
    evaluating it at a key gives a k-wise independent value in [0, p).
    Derived helpers map that value to buckets, to ±1 signs, or to field
    fingerprint coefficients. All constructors consume randomness from an
    explicit {!Prng.t}. *)

type t
(** A sampled hash function. *)

val create : Prng.t -> k:int -> t
(** [create rng ~k] samples a k-wise independent function ([k >= 1]).
    [k = 2] is pairwise, [k = 4] suffices for AMS sign hashes. *)

val degree : t -> int
(** Independence parameter [k] the function was created with. *)

val value : t -> int -> int
(** [value h key] in [0, 2^31 − 1); keys may be any non-negative int below
    the field modulus. *)

val bucket : t -> buckets:int -> int -> int
(** [bucket h ~buckets key] maps to [0, buckets). Bias is at most
    [buckets / 2^31], negligible for the bucket counts used here. *)

val sign : t -> int -> int
(** [sign h key] is ±1, determined by one bit of [value]. *)

val field_coeff : t -> int -> int
(** [field_coeff h key] is a nonzero field element usable as a fingerprint
    coefficient (value 0 is remapped to 1). The polynomial value is passed
    through a bijective finalizer first: raw polynomial coefficients make
    Σ_{i∈S} c(i) a function of S's power sums, so structured supports
    (equal size and sum) would collide under {e every} draw of the hash —
    a soundness hole for sparse-recovery verification and set
    fingerprints. *)

val float01 : t -> int -> float
(** [float01 h key] deterministic pseudo-uniform in [0,1) derived from
    [value]; used for consistent subsampling of coordinates. *)

(** {1 Tabulation}

    Precompute a derived map over the whole key domain [0, dim). Every
    table entry is produced by the function it replaces (same polynomial,
    same finalizer), so [table.(key)] is bit-identical to calling the
    function — the foundation of the plan/apply sketch kernels
    (docs/PERFORMANCE.md). Cost is O(dim) evaluations, amortised over
    every row sketched against the same hash family. *)

val tabulate_buckets : t -> buckets:int -> dim:int -> int array
(** [(tabulate_buckets h ~buckets ~dim).(key) = bucket h ~buckets key]. *)

val tabulate_sign_floats : t -> dim:int -> float array
(** [(tabulate_sign_floats h ~dim).(key) = float_of_int (sign h key)]
    (±1.0), ready for multiply–add inner loops with no int→float
    conversion per entry. *)

val tabulate_field_coeffs : t -> dim:int -> int array
(** [(tabulate_field_coeffs h ~dim).(key) = field_coeff h key]. *)
