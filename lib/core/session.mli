(** Amortised query sessions over one sketch exchange.

    A query optimizer rarely asks one question: it wants the join size,
    then the per-row cardinalities, then the skew. The round-1 message of
    Algorithm 1 (Bob's ℓp sketches of his rows) already determines
    (1+β)-estimates of {e every} row norm of C = A·B on Alice's side, so it
    can be paid for once and queried repeatedly for free:

    - [establish] performs the one-time exchange at accuracy β;
    - [norm_pow], [row_norm_pow], [top_rows] answer from the cached
      sketches with {e zero} additional communication;
    - [refine] runs Algorithm 1's sampling round on top of the cached
      round, upgrading the norm estimate from (1+β) to (1+O(β²)) — the
      full Theorem 3.1 guarantee with ε = β². *)

type t

val establish :
  ?p:float ->
  ?groups:int ->
  Matprod_comm.Ctx.t ->
  beta:float ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  t
(** One round, Õ(n/β²) bits. [p] defaults to 0. *)

val norm_pow : t -> float
(** (1+β)-estimate of ‖C‖_p^p. No communication. *)

val row_norm_pow : t -> int -> float
(** (1+β)-estimate of ‖C_{i,*}‖_p^p. No communication. *)

val top_rows : t -> k:int -> (int * float) list
(** The [k] rows with the largest estimated norms, descending. No
    communication. *)

val refine : Matprod_comm.Ctx.t -> ?rho_const:float -> t -> float
(** Algorithm 1's round 2 over this session's cached estimates: samples
    rows with the group-calibrated probabilities and returns the
    Horvitz–Thompson estimate of ‖C‖_p^p — a (1+O(β²))-approximation for
    Õ(n·rho_const/β²) extra bits. Must be called with the same context
    the session was established in (the transcript continues). *)
