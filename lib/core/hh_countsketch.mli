(** The CountSketch baseline from §1.3: the "direct adaptation" of Pagh's
    compressed matrix multiplication [32] to the two-party model.

    Alice ships, for each inner index k and each repetition, the b-bucket
    half-sketch of her column A_{*,k} — Θ̃(n·b) bits in one speaking
    phase, exactly the Θ̃(n/ε²) the paper says this approach cannot beat.
    Bob convolves with his rows' half-sketches, obtains a CountSketch of
    C = A·B, and reads off the heavy entries by point queries.

    Serves as the third baseline of experiment E9 (against Algorithm 4's
    Õ(√ϕ/ε·n)). *)

type params = {
  p : float;  (** only p = 1 is supported (CountSketch thresholds on ℓ1) *)
  phi : float;
  eps : float;
  buckets : int;  (** CountSketch width b (rounded to a power of two) *)
  reps : int;
}

val default_params : phi:float -> eps:float -> buckets:int -> params

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  (int * int) list
(** Output set S (sorted): all entries whose point-query estimate is at
    least (ϕ − ε/2)·‖C‖₁. Requires non-negative matrices (for the exact
    Remark 2 ℓ1). The band guarantee holds when b = Ω((‖C‖₂/ε‖C‖₁)²). *)
