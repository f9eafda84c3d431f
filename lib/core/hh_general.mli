(** Algorithm 4 / Corollary 5.2 — ℓp-(ϕ, ε)-heavy-hitters of C = A·B for
    non-negative integer matrices, O(1) rounds, Õ(√ϕ/ε·n) bits.

    The output S satisfies HH^p_ϕ(C) ⊆ S ⊆ HH^p_{ϕ−ε}(C) with high
    probability: every entry with C_{i,j}^p ≥ ϕ‖C‖_p^p is present, nothing
    below (ϕ−ε)‖C‖_p^p appears.

    Plan: (1) estimate ‖C‖_p^p (exactly via Remark 2 for p = 1, via
    Algorithm 1 otherwise); (2) Alice downsamples each unit of mass of A
    binomially at rate β chosen so heavy entries keep Θ(log n) mass while
    ‖C^β‖₀ collapses to Õ(ϕ/ε²); (3) recover the now-sparse C^β additively
    shared via the distributed matrix product; (4) Alice ships her heavy
    share entries; Bob thresholds C' = C'_A + C_B at β·((ϕ−ε/2)‖C‖_p^p)^{1/p}.

    The paper states the algorithm for p = 1 and scales thresholds through
    |·|^p for general p; we do the same in the value domain. *)

type params = {
  p : float;  (** in (0, 2] *)
  phi : float;
  eps : float;  (** 0 < eps <= phi <= 1 *)
  beta_const : float;  (** sampling-rate numerator multiplier (paper: 10⁴) *)
  lp_eps : float;  (** accuracy of the step-1 norm estimate when p ≠ 1 *)
}

val default_params : ?p:float -> phi:float -> eps:float -> unit -> params

type outcome = {
  set : (int * int) list;  (** the output set S, sorted *)
  beta : float;  (** sampling rate used (1.0 = no subsampling) *)
  lpp : float;  (** the step-1 estimate of ‖C‖_p^p *)
  recovered_nnz : int;  (** ‖C^β‖₀ as recovered by the product protocol *)
}

val run_full :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  outcome
(** Requires non-negative matrices. *)

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  (int * int) list
(** [run ctx p ~a ~b = (run_full ctx p ~a ~b).set]. *)
