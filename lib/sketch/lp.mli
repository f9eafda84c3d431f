(** Unified ℓp sketch for p ∈ [0, 2] — the paper's Lemma 2.1 interface.

    Dispatches to {!L0_sketch} (p = 0), {!Stable_sketch} (0 < p < 2) and
    {!Ams} (p = 2) behind one value type, so protocol code is written once
    for the whole range. Values are linear: [add_scaled] with integer
    coefficients implements sk(Σ aₖ·xₖ) = Σ aₖ·sk(xₖ), the composition
    through the matrix product. *)

type t

type value = F of float array | Z of L0_sketch.state
    (** Float counters (p > 0) or field counters (p = 0), the latter by
        their nonzero cells. *)

val create :
  Matprod_util.Prng.t -> p:float -> eps:float -> groups:int -> dim:int -> t
(** Requires p ∈ [0,2], eps ∈ (0,1], groups ≥ 1. [dim] is the length of the
    vectors to be sketched (only the ℓ0 branch uses it). *)

val empty : t -> value
val sketch : t -> (int * int) array -> value
val add_scaled : t -> value -> coeff:int -> value -> value
(** [add_scaled t acc ~coeff src] is acc + coeff·src. A float [acc] is
    updated in place and returned; an ℓ0 state is merged into a new one. *)

val estimate_pow : t -> value -> float
(** Estimate of ‖x‖_p^p (with ‖x‖₀⁰ = ‖x‖₀ as in the paper, 0⁰ = 0). *)

(** {1 Combine and estimate} — the receiving side of every linear-sketch
    protocol: one sketch per inner index arrives, and each output row or
    column is estimated from a combination of them. *)

type combiner

val combiner : t -> value array -> combiner
(** Prepares received sketches for {!estimate_combination}, once per
    message; for p = 0 it lists each sketch's nonzero cells
    ({!L0_sketch.combiner}). Safe to share across pool domains. *)

val estimate_combination : combiner -> (int * int) array -> float
(** [estimate_combination (combiner t srcs) coeffs] is exactly
    [estimate_pow t (Σ_(k,c)∈coeffs c·srcs.(k))], the sum built by
    {!add_scaled} from {!empty}. For p = 0 it costs the nonzero cells of
    the sketches used rather than {!size} per sketch. *)

(** {1 Plan/apply} — dispatches to the underlying sketch's plan; results
    are bit-identical to {!sketch} (docs/PERFORMANCE.md). *)

type plan

val plan : t -> dim:int -> plan
(** Precomputed hash/entry tables for keys in [0, dim). Build once per
    hash family, reuse across every row sharing it. *)

val sketch_with_plan : t -> plan -> (int * int) array -> value

val wire : t -> value Matprod_comm.Codec.t
(** Codec for shipping sketch values: float32 per float counter, varint per
    field counter ({!Matprod_comm.Codec.sparse_uint_array}: dense bytes
    from the nonzero cells). *)
