(** Algorithm 2 — (2+ε)-approximation of ‖A·B‖∞ for binary matrices in
    3 speaking phases and Õ(n^1.5/ε) bits (Theorem 4.1).

    Alice assigns every 1-entry of A a geometric level (nested subsamples
    A⁰ ⊇ A¹ ⊇ … with survival rate 1/(1+ε) per level) and ships all levels'
    column sums; Bob finds the first level ℓ* at which ‖C^ℓ‖₁ drops below
    the threshold γ·n·m. Then, per inner index k, the party whose side of
    the rank-1 contribution is smaller ships its index set, after which
    Alice and Bob hold C_A + C_B = C^{ℓ*} and output
    max(‖C_A‖∞, ‖C_B‖∞)/p_{ℓ*} — a (2+ε)-approximation because the max
    entry is split across at most the two shares. *)

type params = {
  eps : float;
  gamma_const : float;
      (** threshold multiplier: γ = gamma_const·ln(n)/ε². The paper proves
          with 10⁴; smaller constants work empirically and let the
          subsampling actually engage at laptop scales. *)
}

val default_params : eps:float -> params

type result = {
  estimate : float;  (** the (2+ε)-approximation of ‖A·B‖∞ *)
  level : int;  (** chosen subsampling level ℓ* *)
  p_level : float;  (** survival probability at ℓ* *)
}

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  result

val run_with :
  Matprod_comm.Ctx.t ->
  base:float ->
  threshold:float ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  result
(** The engine with explicit knobs: per-level survival rate 1/[base] and
    absolute ‖C^ℓ‖₁ stopping [threshold]. Algorithm 3 reuses this with
    base = 2 and threshold = α·n·m/κ. *)
