(** The uniform estimator value every protocol driver is packaged as.

    Each statistic is its own driver with its own signature
    ([Lp_protocol.run] returns [float], [Matprod_protocol.run] returns
    shares, the heavy-hitter drivers return coordinate lists). {!t} gives
    them one shape — a name, a description, a predicted {!cost} and a
    [run] over a binary workload, all at the driver's default query — so
    generic machinery (the {!Registry}, the chaos gallery, the CLI, the
    fleet) can treat "a protocol" as a plain value.

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
    its log factors made concrete; advisory — the transcript is the
    ground truth) and the speaking phases the default query takes (the
    test suite checks these against measured rounds). *)

type t = {
  name : string;  (** registry key, unique *)
  describe : string;  (** one line, paper reference included *)
  cost : n:int -> cost;  (** predicted cost of the default query, n×n *)
  run :
    Matprod_comm.Ctx.t ->
    a:Matprod_matrix.Bmat.t ->
    b:Matprod_matrix.Bmat.t ->
    comparable;
      (** run the default query over a binary workload (integer drivers
          lift via [Imat.of_bmat]). All randomness comes from the
          context, so equal seeds give equal answers — the property the
          chaos and journal galleries assert. Wrap in {!Outcome.capture}
          for the fail-safe trichotomy. *)
}
(** An estimator at its default query: the canonical small-instance query
    the chaos gallery, the journal byte-identity suite, the fleet and
    [matprod estimate] all run. *)

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
  t
(** Package a driver: [cost] and [run] close over [default], and [run]
    projects the driver's native answer through [comparable]. *)

val pp_comparable : Format.formatter -> comparable -> unit
