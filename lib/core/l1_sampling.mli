(** Remark 3 — ℓ1-sampling of C = A·B in one round and O(n log n) bits.

    Returns an entry (i, j) with probability C_{i,j}/‖C‖₁ — a uniformly
    random tuple of the natural join. Alice sends, for every inner index k,
    her column sum ‖A_{*,k}‖₁ and one row index drawn ∝ A_{i,k}; Bob picks
    the witness k ∝ ‖A_{*,k}‖₁·‖B_{k,*}‖₁, then a column j ∝ B_{k,j}, and
    outputs (Alice's sample for k, j). *)

type sample = { row : int; col : int; witness : int }

val run :
  Matprod_comm.Ctx.t ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  sample option
(** [None] iff ‖A·B‖₁ = 0. Requires non-negative matrices. *)

val run_many :
  Matprod_comm.Ctx.t ->
  count:int ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  sample option array
(** [count] independent ℓ1-samples for O(n + count) words instead of
    [count]·O(n): the column sums are shipped once, then Bob names his
    [count] witnesses and Alice answers each with one row draw (3 speaking
    phases). Each sample has exactly {!run}'s distribution. All [None]
    iff ‖A·B‖₁ = 0. Used by the batched engine to merge ℓ1-sample
    queries into one exchange. *)
