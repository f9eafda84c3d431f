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

type answer =
  | Scalar of float  (** scalar statistics: norms, join sizes *)
  | Vector of float array
      (** one estimate per row of C; [nan] at rows no shard covered *)
  | Ranked of (int * float) list  (** (row, estimate), largest first *)
  | Entry_set of (int * int) list  (** coordinate sets: heavy hitters *)
  | L0_samples of L0_sampling.sample option array
      (** drawn nonzero entries, each carrying its value *)
  | L1_samples of L1_sampling.sample option array
      (** entries drawn ∝ value, each carrying a witness index *)
  | Shares of (int * int * int) list * (int * int * int) list
      (** additively shared product: Alice's and Bob's sorted entries *)
  | Leveled of float * int
      (** an estimate together with the subsampling level that produced it *)
(** The one answer type of every estimator and every engine query, so a
    chaotic run can be checked [=] against its fault-free twin, a golden
    test can print any driver's output the same way, and the fleet
    verifies, corrupts and merges every answer by one {!contract}. A
    registry entry's one draw is a one-slot sample array. *)

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

(** An answer contract: the paper's guarantee for one query, as the data
    the fleet verifies, votes and merges by. A registry entry states the
    contract of its default query; an engine query states its own
    ([Engine.contract]). It fixes the answer shape, the verification
    range, the voting rule and tolerance, and (through the {!stat}) the
    shard-merge rule. *)
type contract =
  | Exact_count of stat
      (** a [Scalar] the input determines (integral; ‖C‖₁ exactly):
          replicas must agree bit for bit *)
  | Approx of { stat : stat; slack : float; ratio : float }
      (** a [Scalar] estimate: within [slack]× of the statistic's range;
          replicas agree within [ratio] (and, for the join counts, the
          additive [spread]·max‖C‖₀ + 1) *)
  | Level_approx of { kappa : float; ratio : float }
      (** a [Leveled] κ-approximation of ‖C‖∞; replicas agree within
          [ratio] on the estimate *)
  | Heavy_hitters of { phi : float; eps : float }
      (** an [Entry_set]: every reported coordinate is (φ−ε)-heavy in
          ‖C‖₁; each is proved on its own, so replicas never outvote *)
  | L0_draw
      (** [L0_samples], each a nonzero entry carrying its value; proved on
          its own *)
  | L1_draw
      (** [L1_samples], each an entry carrying a witness index; proved on
          its own *)
  | Product_shares
      (** [Shares] of the exact product: replicas agree on the
          reconstructed C *)
  | Per_row of { stat : stat; slack : float }
      (** a [Vector] of per-row estimates, each at most [slack]× the
          statistic's upper bound; shards fill their own rows; replicas
          agree exactly *)
  | Top_k of { stat : stat; slack : float; k : int }
      (** [Ranked] rows in range, each score at most [slack]× the
          statistic's upper bound; shards merge by re-ranking to the top
          [k]; replicas agree exactly *)

type t = {
  name : string;  (** registry key, unique *)
  describe : string;  (** one line, paper reference included *)
  cost : n:int -> cost;  (** predicted cost of the default query, n×n *)
  contract : contract;  (** the guarantee of the default query *)
  run :
    Matprod_comm.Ctx.t ->
    a:Matprod_matrix.Bmat.t ->
    b:Matprod_matrix.Bmat.t ->
    answer;
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
  answer:('r -> answer) ->
  (Matprod_comm.Ctx.t ->
  'q ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  'r) ->
  t
(** Package a driver: [cost], [contract] and [run] close over [default],
    and [run] projects the driver's native answer through [answer]. *)

val pp_answer : Format.formatter -> answer -> unit
(** One line per answer. A one-slot sample array prints as its one draw,
    [(row, col) = payload] or [(none)]. *)
