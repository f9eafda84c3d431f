(** Sampling from symmetric p-stable distributions, 0 < p <= 2.

    Indyk's ℓp sketch (Lemma 2.1 of the paper, citing [19]) fills the
    sketching matrix with i.i.d. p-stable variables and estimates ‖x‖p as
    the median of |(Sx)_i| divided by the median of the absolute p-stable
    distribution. This module provides the sampler (Chambers–Mallows–Stuck)
    and the normalising median constant. *)

val sample : Prng.t -> p:float -> float
(** One draw from the standard symmetric p-stable distribution.
    [p = 2] is Gaussian (scaled so that sums behave p-stably, i.e. N(0,2)),
    [p = 1] is standard Cauchy. Requires [0 < p <= 2]. *)

val fill_derived : p:float -> seed:int -> rows:int -> dim:int -> float array -> unit
(** [fill_derived ~p ~seed ~rows ~dim a] sets [a.(i * rows + r)] to
    [sample (Prng.derive seed r i) ~p] for every [r < rows] and
    [i < dim], bit for bit, without allocating: the derived streams'
    draws stay in unboxed locals. Raises [Invalid_argument] if [a] is
    shorter than [rows * dim]. *)

val median_abs : p:float -> float
(** Median of |X| for X standard symmetric p-stable. Closed form for
    p ∈ {1, 2}; otherwise computed once per [p] by deterministic Monte
    Carlo calibration (fixed internal seed) and cached. *)
