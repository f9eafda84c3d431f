(** Batched, plan-cached query engine over one [(A, B)] pair.

    A query optimizer rarely asks one question: it wants the join size,
    the per-row cardinalities, the skew, a few sample tuples. Run as
    standalone drivers those are independent sketch exchanges, each paying
    its own round-1 message. The engine accepts a {e batch} of statistic
    queries and compiles it into a minimal communication schedule:

    - queries sharing a sketch family are answered from {e one} exchange
      at the finest accuracy any of them needs (the round-1 reuse of
      {!Matprod_core.Session}, generalised);
    - ℓ0/ℓ1 sample queries merge their counts into one amortised
      multi-sample run;
    - duplicate queries are answered once;
    - the sketch families of the lp and Frobenius groups, their plans
      ({!Matprod_sketch.Lp.plan} tables) and Bob's encoded B-row messages
      are held for the last seed the engine ran at (see "Held exchanges"),
      so the links of a fleet batch, all at one seed over one B, tabulate
      each family and encode each message once.

    Determinism contract: each exchange group draws its randomness from
    streams {e derived} from [(ctx seed, group key)] — never from the
    shared context streams — so a group's messages do not depend on which
    other queries ride in the batch, answers are reproducible from the
    seed, journaling/resume work unchanged, and a batch answer is
    bit-identical to the same query run through a singleton batch. (The
    one refinement: sample queries merged into a shared exchange draw
    consecutive slices of the group's stream, so the group's slices
    concatenate to exactly what one query with the merged total count
    draws — the first member still matches its singleton run.)

    Fused rounds: the groups share speaking rounds. Each group runs as an
    effect-handler fiber that suspends before every send. Each group
    declares its own turns (opener_i, k_i) ({!own_turns}); the opening
    speaker X minimises the fused round count R = max_i (k_i + [opener_i
    ≠ X]), ties going to the first group's opener. The parties then take
    alternate turns; in a turn, every group due to that speaker runs, in
    group (first-occurrence) order, until it waits for the other party or
    finishes. A started group is due when it waits for the speaker; a
    group not yet started is due in its opener's turns from the latest
    one that still lets it end by turn R, so it holds its state for as
    few turns as it can. A batch therefore takes at most one round more
    than its longest group, and the schedule only interleaves: each
    group's own (sender, label, bytes) messages, every answer, and every
    bit are those of its singleton run. The schedule is
    byte-identical at any [--domains] value; the per-row sketch and
    combine work inside a group fans out across the
    {!Matprod_util.Pool} domains.

    Per-group cost attribution flows through {!Matprod_obs}: spans
    [engine.batch] / [engine.group], counters [engine_bits{family}],
    [engine_queries{family}], [engine_plan_hits], [engine_plan_misses],
    and histogram [engine_group_ns{family}] (docs/OBSERVABILITY.md). A
    suspended group keeps its metrics scope and open spans: they are
    swapped out while it waits and back in when it resumes, and its span
    durations exclude the wait. *)

(** One statistic request over C = A·B. Accuracies: [Norm_pow] follows
    Algorithm 1 ([eps] is the target relative error, paid with a sampling
    round); [Row_norms]/[Top_rows] are answered from cached round-1
    sketches at accuracy [beta] with no extra communication. *)
type query =
  | Norm_pow of { p : float; eps : float }
      (** (1+eps)-estimate of ‖C‖_p^p, p ∈ [0, 2]. *)
  | Frob_norm of { eps : float }
      (** (1+eps)-estimate of ‖C‖_F² on the SRHT family, one round. *)
  | Row_norms of { p : float; beta : float }
      (** (1+beta)-estimates of every ‖C_{i,*}‖_p^p. *)
  | Top_rows of { p : float; beta : float; k : int }
      (** The [k] rows with the largest estimated norms, descending. *)
  | L0_sample of { eps : float; count : int }
      (** [count] near-uniform nonzero entries of C (Theorem 3.2). *)
  | L1_sample of { count : int }
      (** [count] entries drawn ∝ value (Remark 3); non-negative inputs. *)
  | Heavy_hitters of { phi : float; eps : float }
      (** ℓ1-(phi, eps)-heavy entries of C (Algorithm 4). *)
  | Linf of { kappa : float }
      (** kappa-approximation of ‖C‖∞ (Theorem 4.8). *)
  | Exact_product  (** additive shares C_A + C_B = C (Lemma 2.5 role). *)

type answer = Matprod_core.Estimator.answer =
  | Scalar of float
  | Vector of float array
  | Ranked of (int * float) list
  | Entry_set of (int * int) list
  | L0_samples of Matprod_core.L0_sampling.sample option array
  | L1_samples of Matprod_core.L1_sampling.sample option array
  | Shares of (int * int * int) list * (int * int * int) list
  | Leveled of float * int  (** never produced by the engine *)
(** The estimators' answer type ({!Matprod_core.Estimator.answer}),
    re-exported so batch code can name [Engine.Scalar]. *)

val contract : query -> Matprod_core.Estimator.contract
(** The query's answer contract, which the fleet verifies and merges by:
    [Norm_pow] is [Approx] on ‖C‖₀ (p < 0.5), ‖C‖₁ (p < 1.5) or ‖C‖_F²
    with slack 2 + 4ε (doubled for ‖C‖_F², as for [Frob_norm]); [Linf] is
    [Approx] on ‖C‖∞ with slack 2; [Row_norms] and [Top_rows] are
    [Per_row] and [Top_k] on ‖C‖₁ (p < 1.5) or ‖C‖_F² with slack 4; the
    sample, heavy-hitter and exact queries are [L0_draw], [L1_draw],
    [Heavy_hitters] and [Product_shares]. Every voting ratio is 1: batch
    replicas at the fleet seed agree exactly. *)

type plan_status =
  | Plan_hit  (** sketch family + tables held from an earlier run *)
  | Plan_miss  (** tabulated this batch (now held) *)
  | Not_planned  (** the group's family has no plan/apply path *)

(** Cost attribution for one compiled exchange group. *)
type group_report = {
  family : string;  (** e.g. ["lp(p=0,beta=0.5)"], ["l0-sample(eps=0.25)"] *)
  members : int list;  (** indices into the batch, ascending *)
  bits : int;  (** fresh transcript bits this group cost *)
  rounds : int;
      (** speaking phases of the group's own fresh messages, as if it ran
          alone *)
  elapsed_ns : int;  (** the group's own running time, waits excluded *)
  plan : plan_status;
}

type report = {
  answers : answer array;  (** one per query, in batch order *)
  groups : group_report list;  (** in execution (first-occurrence) order *)
  total_bits : int;
  total_rounds : int;
  plan_hits : int;  (** groups whose family was held ([Plan_hit]) *)
  plan_misses : int;  (** groups that built their family ([Plan_miss]) *)
}

type t
(** An engine instance: holds one seed's exchanges (below). Reusable
    across batches and contexts. Not safe to share between domains. *)

val create : unit -> t
(** An engine that holds nothing yet. *)

val max_batch_samples : int
(** The most samples one batch may ask for, summed over its [L0_sample]
    and [L1_sample] counts (256). A served batch runs under the daemon's
    compute lock, so its size is bounded. *)

(** {1 Held exchanges}

    An lp or Frobenius group's sketch family and its plan depend on the
    group's tag (family and accuracy), the dimension and the context seed
    alone; Bob's message, the encoded sketch of each row of B under the
    family, also on B — never on A. The engine holds them for the last
    context seed it ran at, keyed by [(group tag, dim)], with the message
    of the last B it saw, compared by physical equality. A run at any
    other seed first drops everything the engine holds, so it keeps one
    seed's exchanges at most.

    A run that finds its group held reports [Plan_hit] and skips the
    tabulation; over the same B it also skips the sketch build and the
    encode, and over another B it builds and encodes the message again.
    Every run still charges, journals, faults and decodes its own copy on
    its own channel, so its transcript, answers and bits are those of a
    run on a fresh engine. Only its metrics differ: a run served the held
    message records no sketch build and no [codec_encode_ns] for it.

    {!Matprod_topology.Fleet.run_batch} hands its engine to every link:
    all run at the fleet seed over one B, so the first link builds and
    encodes each message and the others send those bytes. A link that
    reseeds runs at another seed and drops what the engine held. *)

val run :
  t ->
  Matprod_comm.Ctx.t ->
  a:Matprod_matrix.Imat.t ->
  b:Matprod_matrix.Imat.t ->
  query list ->
  report
(** Execute a batch. The sketch budget is the most sketch counters one
    query may ask for (2²²), counted as 12/acc² per repetition group and
    inner index at the accuracy [acc] of a [Norm_pow] (√eps),
    [Row_norms], [Top_rows], [Frob_norm] or [L0_sample] query (the ℓ0
    families hold that once per level); like {!max_batch_samples}, it
    bounds the memory a served batch takes. Requires [cols a = rows b], a non-empty batch, sample
    counts that are non-negative and total at most {!max_batch_samples},
    queries within the sketch budget, and — for [L1_sample] and
    [Heavy_hitters] — non-negative matrices (raises [Invalid_argument]
    otherwise, which {!Matprod_core.Outcome} types as [Precondition]).
    The transcript simply continues on [ctx]; run several batches in one
    context to amortise nothing twice. The engine's held exchanges are
    described above. *)

val own_turns : query -> Matprod_comm.Transcript.party * int
(** The party that opens the query's group and the speaking phases the
    group spends alone: Bob opens the lp and Frobenius families, Alice
    every other; [Norm_pow] takes 2 phases (sketches, then the sampling
    round), [L1_sample], [Heavy_hitters] and [Exact_product] 3, a sample
    query with [count = 0] none, and every other 1. A group declares its
    family's opener and the largest of its members' phases. The
    declaration steers only when the group starts and which party opens
    the batch, never an answer or a byte. *)

(** {1 Query specs}

    A tiny textual form, ["name:key=val,key=val"], shared by the CLI's
    [batch] subcommand, the bench harness, and the docs. Names: [norm],
    [rows], [top], [l0], [l1], [hh], [linf], [exact]. Keys: [p], [eps],
    [beta], [k], [count], [phi], [kappa]. Unset keys take the defaults
    documented in docs/API.md; a negative [k] or [count] is an error. *)

val query_of_string : string -> (query, string) result
val query_to_string : query -> string
(** Canonical spec; [query_of_string (query_to_string q) = Ok q]. *)
