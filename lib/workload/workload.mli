(** Synthetic workload generators for the experiments.

    The paper evaluates nothing empirically, so these generators are chosen
    to exhibit the regimes its theorems speak about: uniform and skewed
    join inputs, planted maximum-overlap pairs, planted heavy hitters, and
    the job/applicant skill-matching scenario from §1.1. All generators
    are deterministic given the PRNG. *)

val uniform_bool :
  Matprod_util.Prng.t -> rows:int -> cols:int -> density:float ->
  Matprod_matrix.Bmat.t
(** Each entry 1 independently with probability [density]. *)

val zipf_bool :
  Matprod_util.Prng.t ->
  rows:int -> cols:int -> row_degree:int -> skew:float ->
  Matprod_matrix.Bmat.t
(** Every row gets ≈[row_degree] items drawn from a Zipf([skew])
    popularity distribution over the columns — skewed join keys, the
    classic hard case for join-size estimators. *)

val gen_pair :
  zipf:bool -> seed:int -> n:int -> density:float ->
  Matprod_matrix.Bmat.t * Matprod_matrix.Bmat.t
(** The CLI's and the serve daemon's n×n input pair (A, B) from one seed:
    {!uniform_bool} at [density], or with [zipf] a {!zipf_bool} A of row
    degree ≈ density·n at skew 1.1 and the transpose of another as B. A
    and B draw from two streams split off [seed]. *)

val uniform_int :
  Matprod_util.Prng.t ->
  rows:int -> cols:int -> density:float -> max_value:int ->
  Matprod_matrix.Imat.t
(** Nonzero entries uniform in [1, max_value]. *)

val planted_pair :
  Matprod_util.Prng.t ->
  n:int -> density:float -> overlap:int ->
  Matprod_matrix.Bmat.t * Matprod_matrix.Bmat.t * (int * int)
(** Background-noise matrices with one (row of A, column of B) pair given
    [overlap] common items: the ℓ∞ needle. Returns (A, B, (i, j)). *)

val planted_heavy_hitters :
  Matprod_util.Prng.t ->
  n:int -> density:float -> heavy:(int * int) list ->
  Matprod_matrix.Bmat.t * Matprod_matrix.Bmat.t
(** [heavy] lists (count, overlap): for each entry, [count] (row, column)
    pairs are planted with the given intersection size on top of uniform
    noise. *)

val planted_heavy_int :
  Matprod_util.Prng.t ->
  n:int ->
  density:float ->
  max_value:int ->
  heavy:(int * int * int) list ->
  Matprod_matrix.Imat.t * Matprod_matrix.Imat.t * (int * int) list
(** Integer workload for Algorithm 4: uniform background values in
    [1, max_value], plus for each [(count, overlap, value)] in [heavy],
    [count] (row, column) pairs sharing [overlap] coordinates on which both
    sides carry [value] — each contributes ≈ overlap·value² to C. Returns
    (A, B, planted positions). Unlike binary inputs, entries here can
    dominate ϕ‖C‖₁ even when ‖C‖₁ is large, which is what pushes
    Algorithm 4 into its β < 1 subsampled regime. *)

type job_market = {
  applicants : Matprod_matrix.Bmat.t;  (** applicant × skill *)
  jobs : Matprod_matrix.Bmat.t;  (** skill × job *)
  star_applicant : int;
  star_job : int;
}

val job_matching :
  Matprod_util.Prng.t ->
  applicants:int -> jobs:int -> skills:int ->
  avg_skills:int -> avg_requirements:int ->
  job_market
(** The §1.1 scenario: applicants hold skill sets, jobs require skill
    sets; skills are Zipf-popular. One "star" applicant/job pair shares an
    unusually large skill overlap. (A·B)_{i,j} = number of job j's
    requirements applicant i meets. *)
