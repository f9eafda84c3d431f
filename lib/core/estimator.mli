(** The uniform estimator interface every protocol driver is packaged
    behind.

    Historically each statistic was its own one-shot driver with an ad-hoc
    signature ([Lp_protocol.run] returns [float], [Matprod_protocol.run]
    returns shares, the heavy-hitter drivers return coordinate lists).
    {!S} gives them one shape — a query type, an answer type, a predicted
    {!cost}, and [run]/[run_safe] entry points over a binary workload — so
    generic machinery (the {!Registry}, the chaos gallery, the CLI, the
    batched engine's fallback paths) can treat "a protocol" as a value.

    The original per-driver [run] functions remain the real
    implementations and the documented direct entry points; an estimator
    is a thin adapter over them (docs/API.md). *)

type comparable =
  | Number of float  (** scalar statistics: norms, join sizes *)
  | Coords of (int * int) list  (** coordinate sets: heavy hitters *)
  | Sample of (int * int * int) option
      (** one drawn entry, [(row, col, payload)]; the payload is the entry
          value (ℓ0) or the witness index (ℓ1) *)
  | Samples of (int * int * int) option list  (** a batch of drawn entries *)
  | Shares of (int * int * int) list * (int * int * int) list
      (** additively shared product: Alice's and Bob's sorted entries *)
  | Leveled of float * int
      (** an estimate together with the subsampling level that produced it *)
(** One structurally comparable answer type shared by every estimator, so
    a chaotic run can be checked [=] against its fault-free twin and a
    golden test can print any driver's output the same way. *)

type cost = { bits : float; rounds : int }
(** Predicted transcript cost: order-of-magnitude bits (the Õ bound with
    its log factors made concrete) and speaking phases. Advisory — the
    transcript is the ground truth. *)

(** The interface. [query] carries the accuracy/shape parameters (each
    driver's existing [params] type, typically); [answer] is the driver's
    native result, projected into {!comparable} by [comparable]. *)
module type S = sig
  type query
  type answer

  val name : string
  (** Registry key, unique. *)

  val describe : string
  (** One-line human description (paper reference included). *)

  val default_query : query
  (** The canonical small-instance query used by the chaos gallery, the
      journal byte-identity suite, and [matprod estimate]. *)

  val cost_model : query -> n:int -> cost
  (** Predicted cost on an n×n workload. *)

  val run :
    Matprod_comm.Ctx.t ->
    query ->
    a:Matprod_matrix.Bmat.t ->
    b:Matprod_matrix.Bmat.t ->
    answer
  (** Run over a binary workload (integer drivers lift via
      [Imat.of_bmat]). All randomness comes from the context, so equal
      seeds give equal answers — the property the chaos and journal
      galleries assert. *)

  val run_safe :
    Matprod_comm.Ctx.t ->
    query ->
    a:Matprod_matrix.Bmat.t ->
    b:Matprod_matrix.Bmat.t ->
    (answer * Outcome.diagnostics, Outcome.error) result
  (** [run] under the {!Outcome} trichotomy. *)

  val comparable : answer -> comparable
end

type packed = (module S)
(** An estimator as a first-class value — what the {!Registry} stores. *)

val make :
  name:string ->
  describe:string ->
  default:'q ->
  cost:('q -> n:int -> cost) ->
  comparable:('r -> comparable) ->
  (Matprod_comm.Ctx.t ->
  'q ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  'r) ->
  packed
(** Package a driver: [run_safe] is derived as [Outcome.capture] of [run],
    the one fail-safe wrapper every driver call goes through. *)

val name : packed -> string
val describe : packed -> string

val default_cost : packed -> n:int -> cost
(** {!S.cost_model} at the default query. *)

val run_default :
  packed ->
  Matprod_comm.Ctx.t ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  comparable
(** Run the default query and project the answer — the gallery entry
    point. *)

val run_default_safe :
  packed ->
  Matprod_comm.Ctx.t ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  (comparable * Outcome.diagnostics, Outcome.error) result
(** Fail-safe {!run_default}. *)

val pp_comparable : Format.formatter -> comparable -> unit
