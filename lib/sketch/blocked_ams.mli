(** Blocked-AMS ℓ∞ sketch — the Theorem 4.8 upper bound ([33]).

    To κ-approximate ‖x‖∞ of a length-[dim] vector: partition the
    coordinates into ⌈dim/κ²⌉ blocks of κ² consecutive coordinates, keep a
    constant-accuracy {!Ams} ℓ2 sketch per block, and output the largest
    per-block ℓ2 estimate. For y ∈ Z^(κ²), ‖y‖∞ ∈ [‖y‖₂/κ, ‖y‖₂], so the
    answer is within a factor ≈ κ of ‖x‖∞. Sketch size Õ(dim/κ²).

    Linear, so Alice sketches her rows of A and Bob combines them into
    sketches of the columns of C = A·B. *)

type t

val create : Matprod_util.Prng.t -> dim:int -> kappa:float -> t
(** Requires κ ≥ 1. Block size = ⌈κ²⌉ (clamped to [1, dim]). *)

val blocks : t -> int
val size : t -> int
(** Total float counters ≈ blocks × O(1). *)

val empty : t -> float array
val sketch : t -> (int * int) array -> float array
val add_scaled : t -> dst:float array -> coeff:int -> float array -> unit

val estimate_linf : t -> float array -> float
(** max over blocks of the block ℓ2 estimate: lies in
    [‖x‖∞/(1+ε̄), κ·(1+ε̄)·‖x‖∞] for the internal constant ε̄. *)
