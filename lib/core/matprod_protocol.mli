(** Distributed matrix multiplication (our concrete stand-in for
    Lemma 2.5, the [16] protocol): Alice and Bob end up with sparse
    matrices C_A and C_B such that C_A + C_B = A·B exactly.

    Per inner index k, the party whose vector (Alice's column A_{*,k},
    Bob's row B_{k,*}) has the smaller support ships it; the receiving
    party accumulates the outer product into its share. Communication is
    Σ_k min(nnz A_{*,k}, nnz B_{k,*}) words ≤ √(n·‖|A||B|‖₁) — on the
    polylog-sparse products Algorithm 4 applies it to, well within the
    paper's Õ(n·√‖AB‖₀) budget. 3 speaking phases. *)

type shares = { alice : Common.Entry_map.t; bob : Common.Entry_map.t }

val run :
  Matprod_comm.Ctx.t ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  shares
(** Requires cols a = rows b. [shares.alice] + [shares.bob] = A·B. *)
