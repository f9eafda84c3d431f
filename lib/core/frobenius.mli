(** One-round (1±eps)‖AB‖_F² estimator on the SRHT sketch family
    (docs/SKETCHES.md).

    Bob ships SRHT sketches of his rows; Alice combines them by
    linearity into sketches of the rows of C = A·B and sums the per-row
    ‖C_i‖₂² estimates. Registered as the ["srht"] estimator; the Engine
    answers [frob:eps=..] queries from the same construction with the
    plan held. *)

type params = { eps : float; sketch_groups : int }

val default_params : ?sketch_groups:int -> eps:float -> unit -> params

val run :
  Matprod_comm.Ctx.t ->
  params ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  float

val row_sketch_message :
  Matprod_sketch.Srht.t ->
  Matprod_sketch.Srht.plan ->
  b:Matprod_matrix.Imat.t ->
  string
(** Bob's message: the SRHT sketch of each row of B under [sk] and its
    [plan], encoded with {!wire}. It depends on B and the family alone,
    like {!Lp_protocol.row_sketch_message}. *)

val exchange_row_sketches :
  Matprod_comm.Ctx.t ->
  sk:Matprod_sketch.Srht.t ->
  message:string ->
  a:Matprod_matrix.Imat.t ->
  float
(** The exchange with a caller-supplied family and Bob's message
    ({!row_sketch_message}) — the Engine's held exchanges hand the family
    in. The family must be built over [dim = max 1 (cols b)] at the run's
    public coins for the transcript to match {!run}. *)

val wire : float array array Matprod_comm.Codec.t
