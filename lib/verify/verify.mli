(** Coordinator-side answer verification: the semantic firewall behind the
    fleet's byzantine defense (docs/ROBUSTNESS.md).

    The reliability layer guarantees {e transport}: a delivered frame is
    the frame that was sent (CRC32), or nothing. It cannot guarantee that
    the {e worker computed the right thing} — a compromised or buggy
    worker can return a perfectly-framed wrong answer, which is exactly
    what {!Matprod_comm.Fault.check_byzantine} simulates. This module
    gives the coordinator cheap semantic checks on a decoded shard
    answer, derived only from quantities the coordinator can afford to
    compute locally:

    - the {e exact} shard mass ‖A⟨i⟩·B‖₁ = Σ_k colweight(A⟨i⟩,k)·rowweight(B,k),
      O(nnz) — Remark 2's identity, reused as an invariant;
    - the entry cap ‖C‖∞ ≤ min(max row weight of A, max column weight
      of B) and the pair count, giving Cauchy–Schwarz-style ranges for
      every ℓp statistic;
    - exact per-coordinate adjudication for reported samples and heavy
      hitters (one sorted-array intersection each);
    - Freivalds' probabilistic identity test for exact-product shares.

    What to check is the answer's {!Matprod_core.Estimator.contract}: a
    registry entry's, set once from its default query, or an engine
    query's ([Engine.contract]). This module never looks at a name or a
    query. Every
    check is a pure function of (contract, summary, seed, answer): all
    verification randomness derives from the seed, so a verifying fleet
    is as reproducible as a trusting one. Checks are {e sound} for the
    contract — an honest default-query answer passes — and are
    deliberately generous (slack factors cover estimator error): a [Fail]
    verdict certifies a violated invariant, a [Pass] only says the answer
    is within the contract's bound. Tight detection of in-bound lies is
    the replica {!vote}'s job.

    Cost is charged to counters [verify_checks] / [verify_failures] and
    histogram [verify_ns], inside span [verify.check]. *)

(** A failed check names the violated invariant (stable, snake-case — it
    is surfaced in {!Matprod_core.Outcome.Byzantine_detected}) and a
    human-readable detail. *)
type verdict = Pass | Fail of { invariant : string; detail : string }

(** What the coordinator precomputes about one shard workload [(a, b)]
    before asking anyone anything. [l1] is exact; everything else is a
    bound. Building one is O(nnz(a) + nnz(b)); the lazy transpose of [b]
    is forced only by coordinate-level checks. *)
type summary = {
  out_rows : int;  (** rows of C = a·b *)
  out_cols : int;
  inner : int;  (** shared dimension *)
  l1 : float;  (** exact ‖a·b‖₁ (Remark 2's column/row-sum identity) *)
  cap : float;  (** entry-wise bound: C_ij <= min(amax, bmax) *)
  a : Matprod_matrix.Bmat.t;
  b : Matprod_matrix.Bmat.t;
  bt : Matprod_matrix.Bmat.t Lazy.t;  (** transpose of [b], on demand *)
}

val summarize :
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  summary

val check :
  name:string ->
  Matprod_core.Estimator.contract ->
  summary ->
  seed:int ->
  Matprod_core.Estimator.answer ->
  verdict
(** Validate a decoded shard answer against the summary's invariants, as
    the contract directs ([name] only labels telemetry and details):

    - [Exact_count]: finite, non-negative, a whole number inside the
      statistic's range (for ‖C‖₁, exactly [l1]);
    - [Approx]: finite, non-negative, inside the statistic's range
      widened by the contract's slack;
    - [Level_approx]: estimate within the κ-approximation range, level
      sane;
    - [Heavy_hitters]: indices in bounds, no duplicates, every reported
      coordinate exactly (φ−ε)-heavy (one intersection per coordinate);
    - [L0_draw]/[L1_draw]: for every draw, indices in bounds and the
      carried payload exactly right — the ℓ0 value equals |A_r ∩ B^c|,
      the ℓ1 witness is a real common index;
    - [Product_shares]: indices in bounds, total mass exactly [l1], and
      Freivalds' test C·x = A·(B·x) over seeded 0/1 vectors;
    - [Per_row]/[Top_k]: every estimate finite, non-negative and at most
      the slacked upper bound of the statistic (ranked rows in bounds;
      [nan] rows, uncovered by a degraded merge, pass).

    An answer whose shape the contract does not name fails
    [answer_shape]. *)

(** {1 Corruption (the attack half)}

    The transform a {!Matprod_comm.Fault.check_byzantine} firing applies
    to the victim's decoded answer. Lives here rather than in [Fault]
    because the comm layer cannot see {!Matprod_core.Estimator.answer};
    the fleet composes the two at the answer boundary. *)

val corrupt :
  Matprod_comm.Fault.byzantine_mode ->
  Matprod_util.Prng.t ->
  Matprod_core.Estimator.answer ->
  Matprod_core.Estimator.answer
(** [Scale] multiplies magnitudes by 16 (shifts coordinates); [Sign_flip]
    negates values and indices; [Swap] transposes indexed shapes and
    inverts scalar magnitudes; [Garbage] replaces the payload with seeded
    out-of-range junk. Empty answers ([None] samples, empty sets) pass
    through unchanged — there is nothing to lie about. *)

(** {1 Replica voting}

    How [r] independently-seeded answers to the same shard are reconciled.
    The contract says what "agreement" means: [Exact_count], [Per_row]
    and [Top_k] answers must match bit for bit, [Product_shares] must
    reconstruct the same product (shares at different seeds split
    differently), [Approx] and [Level_approx] answers agree up to the
    contract's ratio (the join counts also within an additive spread),
    and heavy hitters and samples are adjudicated per answer by {!check}
    — each is individually provable, so replicas never vote each other
    out. *)

type vote_result = {
  chosen : int;  (** replica index of the representative answer *)
  chosen_answer : Matprod_core.Estimator.answer;
      (** the representative's original (uncanonicalised) answer *)
  agreed : int list;  (** the winning pairwise-consistent majority *)
  outvoted : (int * string) list;
      (** quarantined replicas with the disagreement detail *)
}

val vote :
  Matprod_core.Estimator.contract ->
  summary ->
  (int * Matprod_core.Estimator.answer) list ->
  vote_result option
(** Reconcile the validator-passing replicas of one shard. Consistency is
    pairwise (never against a pooled center — the median of {v, 16v} at
    r = 2 would indict the honest replica); the winners are the largest
    pairwise-consistent subset holding a strict majority, and the
    representative is the lowest-index winner ([Approx]: the winner
    closest to the {!Matprod_util.Stats.median} of the winning
    values, the Boosting tie-break). [None] means no strict majority
    exists — the shard is ambiguous and the whole replica group must be
    treated as lost. A singleton input always wins its own vote. Raises
    [Invalid_argument] beyond 16 replicas. *)
