(** Subsampled randomized Hadamard transform (SRHT) ℓ2 sketch — the
    S·H·D construction of Ailon–Chazelle / Tropp, in the blocked style
    Balabanov et al. use for distributed architectures
    (docs/SKETCHES.md).

    y = S·H·D·x: D flips each coordinate's sign by a seeded ±1, H is the
    unnormalised Walsh–Hadamard transform over the power-of-two padded
    domain, and S samples sketch rows uniformly from the transformed
    coordinates. Unnormalised Parseval gives E[y_r²] = ‖x‖₂² per row
    with no scaling constant; {!estimate_sq} takes a median of means
    over [groups], exactly like {!Ams}. Linear in x, so shard sketches
    combine by {!add_scaled}.

    Unlike the hashing families the planned apply costs O(d log d) per
    dense row (FWHT) instead of O(nnz·m): {!apply_plan} routes each row
    by its density, and on integer inputs both routes are bit-identical
    (every intermediate is an exact integer), qcheck-enforced. All
    randomness derives from the creation-time seed, so journals resume
    soundly and fleet shards reproduce the unsharded sketches bit for
    bit. *)

type t

val create : Matprod_util.Prng.t -> eps:float -> groups:int -> dim:int -> t
(** rows = Θ(1/ε²)·groups, sized as {!Ams.create}. [dim] fixes the key
    domain (and with it the Hadamard order: next power of two). *)

val size : t -> int
val dim : t -> int

val empty : t -> float array
val sketch : t -> (int * int) array -> float array
val add_scaled : t -> dst:float array -> coeff:int -> float array -> unit

(** {1 Plan/apply} — D and the sampled Hadamard rows tabulated per key
    (sparse route) plus a per-domain FWHT scratch (dense route);
    bit-identical to {!sketch} on either route. *)

type plan

val plan : ?dense_nnz:int -> t -> dim:int -> plan
(** [dim] must equal the family's. [dense_nnz] overrides the measured
    route-crossover threshold: rows with at least that many entries take
    the densify+FWHT route (0 forces it, [max_int] forces the sparse
    route — the tests and the P1 crossover sweep use both). *)

val sketch_with_plan : t -> plan -> (int * int) array -> float array

val estimate_sq : t -> float array -> float
(** Median-of-means estimate of ‖x‖₂². *)
