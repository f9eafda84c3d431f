(** §5.2 / Theorem 5.3 — ℓp-(ϕ, ε)-heavy-hitters of C = A·B for binary
    matrices, O(1) rounds, Õ(n + ϕ/ε²) bits — the improvement over
    Algorithm 4 that binary structure buys.

    Step 1: a coarse ‖C‖_p estimate via Algorithm 1.
    Step 2: column universe sampling at rate β = min(α/(ϕ^{1/p}·L'_p), 1)
    (shared coins), then per-surviving-index set exchange (the Algorithm 2
    trick) leaves the parties with shares C_A + C_B = C' = A'B.
    Step 3: every share entry that looks heavy becomes a candidate; each
    candidate C_{i,j} = |A_i ∩ B^j| is then estimated to relative accuracy
    ε/(2ϕ) by sampling Õ((ϕ/ε)²) coordinates of A_i and probing B^j, and
    the verified values are thresholded into the (ϕ, ε) band. *)

type params = {
  p : float;  (** in (0, 2] *)
  phi : float;
  eps : float;  (** 0 < eps <= phi <= 1 *)
  alpha_const : float;  (** α^p = alpha_const·ln n (paper: 10⁴ log n) *)
  verify_samples_const : float;
      (** coordinate samples per candidate = const·(ϕ/ε)²·ln n *)
  lp_eps : float;  (** step-1 norm estimation accuracy *)
}

val default_params : ?p:float -> phi:float -> eps:float -> unit -> params

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  (int * int) list
(** The output set S, sorted. *)
