(** Linear ℓ0 (distinct elements) sketch — Lemma 2.1 with p = 0.

    Structure per repetition: geometric subsampling levels (coordinate j
    survives to level l with probability 2^{−l}, nested), and K buckets per
    level. A bucket accumulates Σ c_j·x_j over GF(2^31−1), with c_j a
    random field coefficient, so a bucket is nonzero iff it contains a
    nonzero coordinate (up to 1/p cancellation probability). The number of
    nonzero coordinates is read off the bucket-occupancy ("linear
    counting") estimator at a level whose load is moderate, rescaled by
    2^level; the final answer is the median over independent repetitions.

    The sketch is linear over the field, so sketches of rows of B combine
    with Alice's integer coefficients into sketches of rows of A·B, exactly
    as the float sketches do. *)

type t

val create :
  Matprod_util.Prng.t -> eps:float -> groups:int -> dim:int -> t
(** [dim] is the vector length (determines the number of levels);
    buckets per level = Θ(1/ε²), [groups] independent repetitions. *)

val create_explicit :
  Matprod_util.Prng.t -> buckets:int -> groups:int -> dim:int -> t

val size : t -> int
(** Total number of field counters. *)

type state = Matprod_comm.Codec.sparse
(** The field counters of a sketch by their nonzero cells: a sketch of a
    vector with few nonzeros touches few cells, and every build, combine
    and codec below costs those cells, not {!size}. *)

val empty : t -> state
(** The sketch of the zero vector. *)

val sketch : t -> (int * int) array -> state
(** Timed under [sketch_build_ns{l0_sketch}]. *)

val build : t -> (int * int) array -> state
(** {!sketch} without its timer, for a caller that times a larger build. *)

val add_scaled : t -> state -> coeff:int -> state -> state
(** [add_scaled t acc ~coeff src] is acc + coeff·src over the field, cell
    by cell. [acc] must hold canonical residues in [[0, p)] — every state
    this module builds or combines does. Cost is linear in the nonzero
    cells of both. Raises [Invalid_argument] unless both have {!size}
    cells. *)

(** {1 Plan/apply} — per-rep level/coefficient/bucket tables for keys in
    [0, dim); field accumulation identical to {!sketch}
    (docs/PERFORMANCE.md). *)

type plan

val plan : t -> dim:int -> plan
(** [dim] may be at most the sketch's own domain. O(groups·dim·levels). *)

val sketch_with_plan : t -> plan -> (int * int) array -> state
(** Timed under [sketch_build_ns{l0_sketch_planned}]. *)

val estimate : t -> state -> float
(** Estimated number of nonzero coordinates; exact 0 for the zero vector. *)

val wire : t -> state Matprod_comm.Codec.t
(** A state of exactly {!size} cells in the shorter of its dense and
    sparse forms ({!Matprod_comm.Codec.shorter_uint_array}): a state of
    any other size is a {!Matprod_comm.Codec.Decode_error} at receipt. *)

(** {1 Sparse combine} — the estimate of a linear combination of received
    states, paying per nonzero cell (docs/PERFORMANCE.md). *)

type combiner

val combiner : t -> state array -> combiner
(** [combiner t sources] reads each source's nonzero cells in place. The
    sources must not change while the combiner is in use. Safe to share
    across pool domains. *)

val estimate_combination : combiner -> (int * int) array -> float
(** [estimate_combination (combiner t srcs) coeffs] is exactly
    [estimate t acc] where [acc] starts at [empty t] and becomes
    [add_scaled t acc ~coeff:c srcs.(k)] for each [(k, c)] of [coeffs] in
    order. Cost is linear in the nonzero cells of the sources used, not
    in {!size}. Raises [Invalid_argument] when a used source does not
    have {!size} cells. *)
