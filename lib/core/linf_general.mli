(** Theorem 4.8(1) — κ-approximation of ‖A·B‖∞ for arbitrary integer
    matrices in one round and Õ(n²/κ²) bits.

    Alice ships a blocked-AMS ℓ∞ sketch (Õ(n/κ²) floats) of each of her n
    columns; Bob combines them into sketches of every column of C = A·B
    (C_{*,j} = Σ_k B_{k,j}·A_{*,k}) and outputs the largest per-column
    estimate. The companion Ω̃(n²/κ²) lower bound (via Gap-ℓ∞) lives in
    [Matprod_lowerbounds]. *)

type params = { kappa : float }

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  float
(** κ-approximation of ‖A·B‖∞ = max |C_{i,j}|. *)
