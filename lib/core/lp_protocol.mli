(** Algorithm 1 — the paper's headline protocol: a (1+ε)-approximation of
    ‖A·B‖_p^p for p ∈ [0, 2] in 2 rounds and Õ(n/ε) bits (Theorem 3.1).

    Round 1 (Bob → Alice): ℓp sketches of the rows of B at the coarse
    accuracy β = √ε, i.e. S·Bᵀ with S of height Õ(1/β²) = Õ(1/ε).
    Alice combines them into sketches of every row of C = A·B and gets a
    (1+β) estimate of each ‖C_{i,*}‖_p^p.

    Round 2 (Alice → Bob): Alice partitions the rows into (1+β)-geometric
    groups, samples rows with the group-calibrated probabilities
    p_ℓ = ρ/|G_ℓ| · ‖G̃_ℓ‖/‖C̃‖ (importance sampling ≈ proportional to
    estimated mass), and ships the sampled rows of A. Bob computes those
    rows of C exactly and returns the Horvitz–Thompson sum
    Σ ‖C_{i,*}‖_p^p / p_ℓ. *)

type params = {
  p : float;  (** norm order, in [0, 2]; 0 = set-intersection join size *)
  eps : float;  (** target relative error, in (0, 1] *)
  sketch_groups : int;
      (** median-boosting repetitions inside the round-1 sketch *)
  rho_const : float;
      (** expected number of sampled rows = rho_const/ε. The paper sets the
          constant to 10⁴ for the formal proof; the default here is tuned
          empirically (any constant gives the same asymptotics). *)
}

val default_params : ?p:float -> eps:float -> unit -> params
(** p defaults to 0 (join size); sketch_groups 5; rho_const 200. *)

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  float
(** Estimate of ‖A·B‖_p^p. Requires cols a = rows b. *)

val row_sketch_message :
  Matprod_sketch.Lp.t ->
  Matprod_sketch.Lp.plan ->
  b:Matprod_matrix.Imat.t ->
  string
(** Bob's round-1 message in every ℓp driver: the sketch of each row of B
    under [lp] and its [plan], encoded ({!Matprod_comm.Ctx.encode}).
    It depends on B and the family (its coins, accuracy and dimension)
    alone, so a sender facing many links at one seed builds it once. *)

val exchange_row_sketches :
  Matprod_comm.Ctx.t ->
  Matprod_sketch.Lp.t ->
  label:string ->
  message:string ->
  a:Matprod_matrix.Imat.t ->
  float array
(** The round-1 exchange every ℓp driver shares: Bob ships [message]
    ({!row_sketch_message} under [lp]) labelled [label]; Alice decodes
    her own copy and combines it into the raw (unclamped) estimate of
    every ‖C_{i,*}‖_p^p. The caller's choice of family (its coins and
    accuracy) and label fixes the transcript bytes. *)

val estimate_row_norms :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  float array
(** The round-1 sub-protocol on its own: (1+β)-estimates of every
    ‖C_{i,*}‖_p^p on Alice's side. Exposed for §5.2 (step 1) and tests. *)

val round2 :
  Matprod_comm.Ctx.t ->
  p:float ->
  beta:float ->
  rho_const:float ->
  est:float array ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  float
(** The sampling round on its own, given round-1 row estimates [est] at
    accuracy β: group, sample ≈ rho_const/β² rows, ship, Horvitz–Thompson.
    Used by [run] (with β = √ε) and by {!Session.refine}. *)
