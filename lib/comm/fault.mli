(** Seeded, deterministic fault injection for the simulated wire.

    A fault model is applied to the {e encoded bytes} of each frame as it
    crosses the channel: messages can be dropped, bit-flipped, truncated,
    duplicated, or delayed, each with its own probability. Rules are
    matched per direction and per transcript-label prefix, so a test can
    make only Bob's acks lossy, or only the round-1 sketch exchange.

    All randomness comes from the model's own [seed] — protocol runs stay
    reproducible, and the parties' coin streams are untouched, so a run
    that survives the faults produces {e exactly} the output of the
    fault-free run (the reliability layer delivers intact bytes or
    nothing). See docs/ROBUSTNESS.md for the full semantics. *)

(** Per-message fault probabilities. [delay_s] is the nominal extra
    latency (jittered in [0.5, 1.5)×) charged when a delay fault fires. *)
type rates = {
  drop : float;
  corrupt : float;  (** flip one uniformly random bit *)
  truncate : float;  (** cut to a uniformly random proper prefix *)
  duplicate : float;  (** deliver the frame twice *)
  delay : float;  (** probability of delaying by ~[delay_s] *)
  delay_s : float;
}

val zero_rates : rates
(** All probabilities 0 — a rule with these rates is inert. *)

type rule
(** [rates] scoped to a direction and a label prefix. *)

val rule : ?from:Transcript.party -> ?label_prefix:string -> rates -> rule
(** [rule rates] applies to every message; restrict with [?from] (only
    messages sent by that party) and [?label_prefix] (only labels starting
    with the prefix — acks carry the label ["<label>/ack"]). Raises
    [Invalid_argument] if any probability is outside [0, 1]. *)

(** {1 Crash events}

    Link faults mangle bytes; crash events kill a {e party}. A crash rule
    names its victim and the point at which the victim dies: either after a
    fixed number of logical messages have crossed the channel, or at the
    moment the victim is about to speak under a given label (a phase
    boundary). When the victim's next [send] trips the rule, the channel
    raises {!Party_crash} {e before} any bytes enter the wire — exactly a
    process dying between messages. A crash rule fires at most once per
    model (a restarted process does not re-crash); replayed journal
    messages (see {!Journal}) never trip crash rules. *)

(** Where a crash rule triggers. *)
type crash_site =
  | After_messages of int
      (** die on the victim's first send once ≥ k logical messages (from
          either party) have crossed the channel; [After_messages 0] kills
          the victim's very first send *)
  | At_label of string
      (** die when the victim is about to send a message whose label starts
          with this prefix *)

type crash = { victim : Transcript.party; site : crash_site }

exception
  Party_crash of { party : Transcript.party; after_messages : int }
(** [after_messages] is the number of logical messages that completed
    before the crash. Converted to the typed
    [Matprod_core.Outcome.Crashed] by [Outcome.guard]. *)

(** {1 Straggle events}

    Crash rules kill a party; a straggle rule makes a link {e late}. Once
    [after] logical messages have completed, the next [burst] physical
    frames (retransmissions included) matching the rule's scope each pay
    a fixed extra [delay_s] of simulated latency. A spike larger than the
    reliability layer's timeout forces retransmissions, so the link
    completes — intact, eventually — while accumulating honest simulated
    waiting; that is exactly the signature a fleet deadline uses to flag a
    straggling worker (docs/ROBUSTNESS.md). One-shot like crash rules:
    once the burst is spent the wire is fast again, so a journal resume
    (or a plain retry) does not pay the spike twice. *)

type straggle

val straggle :
  ?from:Transcript.party ->
  ?label_prefix:string ->
  ?after:int ->
  ?burst:int ->
  delay_s:float ->
  unit ->
  straggle
(** [after] (default 0) counts completed logical messages before the spike
    arms; [burst] (default 1) is how many physical frames the spike hits;
    [delay_s] must be > 0 — deterministic, no jitter, so tests can place it
    exactly relative to the retransmission timeout. *)

(** {1 Byzantine events}

    Byte faults mangle frames; crash rules kill parties; a {e byzantine}
    rule makes a worker {e lie}. It perturbs the worker's decoded shard
    answer after correct framing — the bytes on the wire are intact, so
    CRC/ARQ pass by construction and only semantic verification
    (replica voting, answer validators — see [Matprod_verify.Verify] and
    docs/ROBUSTNESS.md) can catch it. The rule is seeded and one-shot:
    the corruption drawn from the rule's own PRNG never perturbs the
    byte-rule stream, and a fired rule stays fired across journal resumes
    and supervisor reseeds while the same model instance is reused.

    A byzantine rule does {e not} make the model {!is_active}: the wire
    stays byte-for-byte transparent (that is the point of the attack). *)

(** How the decoded answer is perturbed (the transform itself lives in
    [Matprod_verify.Verify.corrupt], which knows the answer shapes). *)
type byzantine_mode =
  | Scale  (** multiply numeric content by 16 / shift reported coordinates *)
  | Sign_flip  (** negate values / negate row indices *)
  | Swap  (** swap row and column indices / invert scalar magnitudes *)
  | Garbage  (** replace with seeded out-of-range junk *)

val all_byzantine_modes : byzantine_mode list
val byzantine_mode_to_string : byzantine_mode -> string

val byzantine_mode_of_string : string -> byzantine_mode option
(** Accepts ["scale"], ["sign-flip"] (or ["sign_flip"]), ["swap"],
    ["garbage"]. *)

type byzantine

val byzantine : mode:byzantine_mode -> unit -> byzantine

type t

val create :
  ?crashes:crash list ->
  ?straggles:straggle list ->
  ?byzantines:byzantine list ->
  seed:int ->
  rule list ->
  t
(** First matching rule wins; a message matching no rule passes intact. *)

val uniform : seed:int -> rates -> t
(** One rule covering every message in both directions. *)

val crash_only : party:Transcript.party -> at:crash_site -> t
(** A model with no byte faults and one crash rule — the wire stays
    byte-for-byte transparent until the victim dies. *)

val straggle_only :
  ?from:Transcript.party ->
  ?label_prefix:string ->
  ?after:int ->
  ?burst:int ->
  delay_s:float ->
  unit ->
  t
(** A model with no byte faults and one straggle rule: every frame passes
    intact, but the spiked ones arrive late. *)

val byzantine_only : ?seed:int -> mode:byzantine_mode -> unit -> t
(** A model with no byte faults and one byzantine rule: the wire is
    perfectly transparent, but the first decoded answer checked against
    this model is corrupted. [seed] (default 0) drives the corruption
    draw. *)

val check_byzantine : t -> (byzantine_mode * Matprod_util.Prng.t) option
(** Called by the topology layer once per decoded shard answer:
    [Some (mode, prng)] if an unfired byzantine rule is armed — the rule
    fires (one-shot) and the caller corrupts the answer with [mode] using
    [prng]. Emits the [faults_byzantine] counter and a [fault.byzantine]
    trace event when firing. *)

val check_crash : t -> from:Transcript.party -> label:string -> unit
(** Called by {!Channel.send} once per logical message before transmission:
    raises {!Party_crash} if an unfired crash rule triggers for this
    sender, otherwise counts the message and returns. Emits the
    [faults_crashed] counter and a [fault.crash] trace event when firing. *)

val is_active : t -> bool
(** Whether any rule carries a nonzero probability or a straggle rule is
    present. The channel engages the reliability layer (framing, acks,
    retries) only on an active model, so an inert one leaves transcripts
    byte-for-byte unchanged. *)

(** Cumulative injection counts since [create]. *)
type stats = {
  dropped : int;
  corrupted : int;
  truncated : int;
  duplicated : int;
  delayed : int;
  crashed : int;  (** crash rules fired *)
  straggled : int;  (** frames hit by a straggle spike *)
  byzantined : int;  (** byzantine rules fired (answers corrupted) *)
  injected_delay : float;  (** total injected delay, seconds *)
}

val zero_stats : stats
val stats : t -> stats
val total_injected : stats -> int

(** One physical arrival of a (possibly mangled) frame. *)
type delivery = { bytes : string; delay : float }

val apply : t -> from:Transcript.party -> label:string -> string -> delivery list
(** Run the fault model over one frame: [] means dropped, two elements
    mean duplicated; bytes may be corrupted or truncated and each copy
    carries its injected delay. Emits [faults_*] counters and
    [fault.<kind>] trace events per docs/OBSERVABILITY.md. *)
