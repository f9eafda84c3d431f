(** Algorithm 3 — κ-approximation of ‖A·B‖∞ for binary matrices in O(1)
    rounds and Õ(n^1.5/κ) bits (Theorem 4.3), for κ ∈ [4, n].

    Adds a universe-sampling step in front of the Algorithm 2 machinery:
    columns of A survive with probability q = min(α/κ, 1) (shared coins),
    shrinking both the universe and ‖C‖₁ by a factor κ. If the sampled
    product D = A'B is all-zero the answer is already pinned down to
    {0, 1-ish} by the event E5, and the protocol answers from ‖C‖₁ alone;
    otherwise it runs the level search with rate 1/2 and threshold
    α·n·m/κ and rescales by 1/(q·p_{ℓ*}). *)

type params = {
  kappa : float;  (** approximation target, ≥ 4 per Theorem 4.3 *)
  alpha_const : float;  (** α = alpha_const·ln n; the paper proves 10⁴ *)
}

val default_params : kappa:float -> params

type result = {
  estimate : float;
  level : int;
  q : float;  (** universe sampling rate used *)
}

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  result
