(** Theorem 3.2 — ℓ0-sampling on C = A·B: output a (near-)uniformly random
    nonzero entry of the product, in 1 round and Õ(n/ε²) bits.

    Alice ships, for every inner index k, a linear ℓ0 sketch and an
    ℓ0-sampler sketch of her column A_{*,k}. Since C_{*,j} = Σ_k B_{k,j}·
    A_{*,k}, Bob combines them into (i) (1+ε) estimates of every column's
    ‖C_{*,j}‖₀, from which he samples a column ∝ its support size, and
    (ii) an ℓ0-sampler for the chosen column, from which he draws the row. *)

type params = {
  eps : float;  (** column-norm estimation accuracy *)
  sketch_groups : int;
  sampler_s : int;  (** per-level recovery budget of the samplers *)
}

val default_params : eps:float -> params

type sample = { row : int; col : int; value : int }

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  sample option
(** [None] iff C = 0 or (rarely) the sampler failed. [value] is the exact
    C_{row,col}, recovered by the sampler. *)

val run_many :
  Matprod_comm.Ctx.t ->
  params ->
  count:int ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  sample option array
(** [count] independent samples from one message: the column-norm sketches
    are shipped once and amortised over [count] independent sampler
    structures — still 1 round, Õ(n/ε² + count·n) bits instead of
    count times the full cost. *)
