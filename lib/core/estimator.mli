(** The uniform estimator value every protocol driver is packaged as.

    Each statistic is its own driver with its own signature
    ([Lp_protocol.run] returns [float], [Matprod_protocol.run] returns
    shares, the heavy-hitter drivers return coordinate lists). {!t} gives
    them one shape — a name, a description, a predicted {!cost}, the
    answer {!contract} and a [run] over a binary workload, all at the
    driver's default query — so generic machinery (the {!Registry}, the
    chaos gallery, the CLI, the fleet and its verifier) can treat "a
    protocol" as a plain value.

    The original per-driver [run] functions remain the real
    implementations and the documented direct entry points; an estimator
    is a thin adapter over them (docs/API.md). *)

type comparable =
  | Number of float  (** scalar statistics: norms, join sizes *)
  | Coords of (int * int) list  (** coordinate sets: heavy hitters *)
  | Sample of (int * int * int) option
      (** one drawn entry, [(row, col, payload)]; the payload is the entry
          value (ℓ0) or the witness index (ℓ1) *)
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

(** A statistic of C = AB, named together with the interval the
    coordinator can bound it to from exact shard facts (‖C‖₁, the entry
    cap and the pair count n·m, [Verify.summary]). Over
    disjoint row blocks ‖C‖∞ merges by max and every other statistic by
    sum. *)
type stat =
  | Norm0 of { times : float }
      (** [times]·‖C‖₀ ([times] independent estimates, summed) *)
  | Norm1  (** ‖C‖₁ *)
  | Frob  (** ‖C‖_F² = Σ C_ij² *)
  | Norm_inf of { kappa : float }  (** ‖C‖∞, undershot by at most κ *)
  | Pairs_upto  (** a count of output pairs: at most n·m *)
  | Disjoint_pairs of { spread : float }
      (** n·m minus a [spread]-approximate ‖C‖₀ *)
  | Pairs_from_l0 of { spread : float }
      (** a share of a [spread]-approximate ‖C‖₀ *)

(** An entry's answer contract: the paper's guarantee for its default
    query, as the data the fleet verifies, votes and merges by. It fixes
    the answer shape, the verification range, the voting rule and
    tolerance, and (through the {!stat}) the shard-merge rule. *)
type contract =
  | Exact_count of stat
      (** a [Number] the input determines (integral; ‖C‖₁ exactly):
          replicas must agree bit for bit *)
  | Approx of { stat : stat; slack : float; ratio : float }
      (** a [Number] estimate: within [slack]× of the statistic's range;
          replicas agree within [ratio] (and, for the join counts, the
          additive [spread]·max‖C‖₀ + 1) *)
  | Level_approx of { kappa : float; ratio : float }
      (** a [Leveled] κ-approximation of ‖C‖∞; replicas agree within
          [ratio] on the estimate *)
  | Heavy_hitters of { phi : float; eps : float }
      (** [Coords]: every reported coordinate is (φ−ε)-heavy in ‖C‖₁;
          each is proved on its own, so replicas never outvote *)
  | L0_draw
      (** [Sample] of a nonzero entry carrying its value; proved on its
          own *)
  | L1_draw
      (** [Sample] of an entry carrying a witness index; proved on its
          own *)
  | Product_shares
      (** [Shares] of the exact product: replicas agree on the
          reconstructed C *)

type t = {
  name : string;  (** registry key, unique *)
  describe : string;  (** one line, paper reference included *)
  cost : n:int -> cost;  (** predicted cost of the default query, n×n *)
  contract : contract;  (** the guarantee of the default query *)
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
  contract:('q -> contract) ->
  comparable:('r -> comparable) ->
  (Matprod_comm.Ctx.t ->
  'q ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  'r) ->
  t
(** Package a driver: [cost], [contract] and [run] close over [default],
    and [run] projects the driver's native answer through [comparable]. *)

val pp_comparable : Format.formatter -> comparable -> unit
