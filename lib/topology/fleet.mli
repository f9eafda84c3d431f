(** Coordinator + k workers over the two-party machinery.

    Rows of A — the output rows of C = A·B — are sharded contiguously
    across [k] workers ({!Shard}); B is replicated at the coordinator.
    Each coordinator↔worker link is an independent {!Matprod_comm.Channel}
    running the {e unmodified} two-party protocol of any registered
    estimator on (A⟨i⟩, B), with the worker in the A-role and the
    coordinator in the B-role, at the fleet seed (a common random string
    across the fleet, Newman-style — all links share one hash family).
    Per-link chaos comes for free: each link carries its own
    {!Matprod_comm.Fault} rules, {!Matprod_comm.Reliable} retransmission,
    and write-ahead {!Matprod_comm.Journal}.

    The fleet supervisor generalises the Resume→Reseed→Degrade→Give-up
    ladder to {e partial} failure. Per link, a {!Matprod_core.Supervisor}
    climbs Resume (journal fast-forward at the same seed) then Reseed; a
    link whose answer arrives but whose simulated waiting exceeds the
    per-worker deadline is flagged a {e straggler} and sent up the same
    ladder — a journal resume replays the already-delivered prefix without
    re-paying the delay spike, which is why resume beats rerun for late
    workers just as it does for crashed ones. Fleet-level:

    - every link answered → [Full] merged answer ({!Merge} — exact,
      because shard products occupy disjoint row blocks of C);
    - at least [quorum] links answered → [Degraded] merged answer over
      the survivors, tagged with coverage (surviving row fraction) and
      the widened extrapolation bound ({!Matprod_core.Outcome.degradation});
    - fewer → the last link's typed error. Never an unflagged wrong
      answer.

    {b Byzantine defense.} The reliability layer only protects transport;
    a worker that {e computes} a wrong answer delivers it with valid CRCs
    ({!Matprod_comm.Fault.check_byzantine} simulates exactly this at the
    answer boundary). Two coordinator-side defenses compose:

    - [verify]: every decoded shard answer runs the
      {!Matprod_verify.Verify} validators (exact shard-mass identity,
      Cauchy–Schwarz ranges, per-coordinate adjudication, Freivalds);
    - [replicas] = r: each shard is run by r independent links at seeds
      derived from (fleet seed, rank, replica); deterministic families
      vote by exact agreement, numeric families within their
      approximation ratio, sampling families are adjudicated per-answer
      ({!Matprod_verify.Verify.vote}).

    A replica that fails a validator or loses the vote is {e quarantined}:
    its link report carries {!Matprod_core.Outcome.Byzantine_detected}
    naming the violated check, it appears in [suspects], and the shard's
    answer is re-merged from the surviving replicas. Only when a whole
    replica group is lost (every replica failed, or no strict majority
    exists) does the shard count as lost and the quorum/[Degraded] ladder
    above take over; the shard's error then blames its first quarantined
    replica (every passer of an ambiguous vote is quarantined as
    [ambiguous_vote]). Replica 0 runs at the fleet seed, so a
    [replicas = 1] fleet is bit-identical to the pre-replica fleet.

    Observability: metrics scope [link<i>] (replica 0) / [link<i>.r<j>]
    per link, counters [fleet_links], [fleet_link_failures],
    [fleet_stragglers], [fleet_degraded], [fleet_giveups],
    [fleet_quarantined], verification cost under [verify_checks] /
    [verify_failures] / [verify_ns], a [fleet.link] span per link and a
    [fleet.quarantine] event per suspect. *)

type link_policy = {
  max_resumes : int;  (** per-link journal resumes (needs [journal]) *)
  max_reseeds : int;  (** per-link fresh-seed reruns *)
  deadline_s : float option;
      (** straggler deadline on a link's simulated waiting
          (retransmission timeouts + injected delay), seconds *)
}

val default_link_policy : link_policy
(** 2 resumes, 1 reseed, no deadline. *)

type config = {
  workers : int;
  quorum : int;  (** minimum surviving links for an answer, in [1, workers] *)
  seed : int;
  replicas : int;  (** independent links per shard, in [1, 16] *)
  verify : bool;  (** run the {!Matprod_verify.Verify} validators *)
  link_policy : link_policy;
  journal : string option;
      (** base path; link [i] replica [j] journals to
          ["<base>.worker<i>"] (replica 0) / ["<base>.worker<i>.r<j>"]
          and the Resume rung becomes available per link *)
  transport : Matprod_comm.Transport.factory option;
      (** physical backend factory; every link attempt opens (and closes)
          its own connection through it. [None] = {!Matprod_comm.Transport.sim} *)
}

val check :
  ?quorum:int -> ?replicas:int -> workers:int -> unit -> (int, string) result
(** The bounds {!config} enforces: [workers >= 1], [replicas] (default 1)
    in [1, 16] and [quorum] (default [workers]) in [1, workers]. [Ok] the
    resolved quorum, or [Error] naming the first bound broken, e.g.
    ["replicas must be in [1, 16]"]. *)

val config :
  ?quorum:int ->
  ?replicas:int ->
  ?verify:bool ->
  ?link_policy:link_policy ->
  ?journal:string ->
  ?transport:Matprod_comm.Transport.factory ->
  workers:int ->
  seed:int ->
  unit ->
  config
(** [quorum] defaults to [workers] (no degraded answers), [replicas] to 1,
    [verify] to [false]. Raises [Invalid_argument] when {!check} fails. *)

type link_report = {
  rank : int;
  replica : int;
  range : Shard.range;
  attempts : Matprod_core.Supervisor.attempt list;
      (** the link's ladder, in execution order ([] if the supervisor gave
          up before producing a report) *)
  answer : (Matprod_core.Estimator.answer, Matprod_core.Outcome.error) result;
      (** a quarantined replica reports
          {!Matprod_core.Outcome.Byzantine_detected} here even though its
          link-level run succeeded *)
  fresh_bits : int;
  fresh_rounds : int;
  resume_bits_saved : int;
  straggled : bool;  (** some attempt tripped the straggler deadline *)
}

(** One quarantined replica and why. *)
type suspect = {
  s_rank : int;
  s_replica : int;
  s_check : string;  (** violated invariant ({!Matprod_verify.Verify}) *)
  s_detail : string;
}

type report = {
  answer : Matprod_core.Estimator.answer Matprod_core.Outcome.graded;
  links : link_report list;
      (** rank-major, replica-minor order, failures included *)
  suspects : suspect list;  (** quarantined replicas, rank-major order *)
  survivors : int;  (** shards (not links) that delivered an answer *)
  coverage : float;  (** surviving row fraction, 1.0 when [Full] *)
  fresh_bits : int;  (** summed over all replica links *)
  fresh_rounds : int;  (** max over links — links run in parallel *)
  resume_bits_saved : int;
}

val run :
  ?wire:(rank:int -> replica:int -> attempt:int -> Matprod_comm.Ctx.t -> unit) ->
  config ->
  Matprod_core.Estimator.t ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  (report, Matprod_core.Outcome.error) result
(** Answer the estimator's default query over the fleet. [?wire] arms
    link [(rank, replica)]'s channel for each supervisor attempt
    (1-based), so chaos profiles can crash exactly one worker, straggle
    exactly one link, arm a byzantine rule on one replica, or vary by
    attempt the way transient real-world failures do. Requires
    [workers <= rows a]. Never raises on wire/crash/precondition
    failures ({!Matprod_core.Outcome.guard}). *)

(** {1 Batched queries against a fleet}

    The same topology under the {!Matprod_engine.Engine}: each link runs
    the full batch against its shard, and each query's answers are
    verified and merged by its [Engine.contract] ({!Merge.merge_batch}).

    {!run_batch} hands its engine to every link. Every link runs at the
    fleet seed over the same B, so the coordinator's first message in
    each lp and Frobenius group is the same bytes on every link: the
    first link to reach a group tabulates the family and encodes the
    message, and the engine holds both for every later link. A link
    whose supervisor reseeds runs at another seed, so it drops what the
    engine held and builds its own. Each worker still decodes its own
    copy, and every link's transcript, journal, faults, answers and bits
    are those of a link run alone on a fresh engine. Links run one after
    another; a fan-out of links over domains would have to fill the
    engine at the fleet seed before fanning out. *)

type batch_link = {
  b_rank : int;
  b_replica : int;
  b_range : Shard.range;
  b_attempts : Matprod_core.Supervisor.attempt list;
  b_answers : (Matprod_engine.Engine.answer array, Matprod_core.Outcome.error) result;
}

type batch_report = {
  batch_answers : Matprod_engine.Engine.answer array Matprod_core.Outcome.graded;
      (** one merged answer per query, in batch order *)
  batch_links : batch_link list;
  batch_suspects : suspect list;
  batch_survivors : int;
  batch_coverage : float;
  batch_fresh_bits : int;
}

val run_batch :
  ?wire:(rank:int -> replica:int -> attempt:int -> Matprod_comm.Ctx.t -> unit) ->
  config ->
  Matprod_engine.Engine.t ->
  Matprod_engine.Engine.query list ->
  a:Matprod_matrix.Bmat.t ->
  b:Matprod_matrix.Bmat.t ->
  (batch_report, Matprod_core.Outcome.error) result
(** Answer a query batch over the fleet through the same shard pipeline,
    verify → vote → quorum ladder and [?wire] hook as {!run}. Two things
    differ. Replicas all run at the {e fleet} seed: the engine's determinism
    contract makes honest replicas byte-identical, so the vote is exact
    agreement on the whole answer array (classic TMR; an outvoted replica
    is a [replica_vote] suspect). [verify] checks each query's answer with
    {!Matprod_verify.Verify.check} under the query's [Engine.contract]
    and quarantines a replica at its first failing query. An empty batch is a
    {!Matprod_core.Outcome.Precondition} error. *)
