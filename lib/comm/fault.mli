(** Seeded, deterministic fault injection for the simulated wire.

    A fault model is described by one spec string — the CLI's [--chaos]
    argument, and the only way to configure a fault anywhere:

    {v kind=crash,party=b,after=3;kind=drop,rate=0.1,from=a v}

    Clauses are separated by [';']; each clause is [key=value] pairs
    separated by [','] and must name its [kind] first. Keys per kind:

    - [drop | corrupt | truncate | duplicate]: [rate] (required, in
      [0,1]); optional [from] (sender: [a]/[alice]/[b]/[bob]) and [label]
      (transcript-label prefix; acks carry the label ["<label>/ack"]).
    - [delay]: as above plus [delay] (seconds, default 0.05; each fired
      delay is jittered in [0.5, 1.5)× of it).
    - [crash]: victim [party] (two-party runs) or [worker] (fleet rank);
      site [after=k] (logical messages, default 0) or [label=prefix];
      flag [permanent] (fleet: the worker re-crashes on every attempt).
    - [straggle]: [delay] (required, seconds); optional [worker] (fleet
      rank), [from], [label], [after], [burst].
    - [byzantine]: [mode] ([scale]/[sign-flip]/[swap]/[garbage], default
      [scale]); optional [worker] (fleet rank).

    {b Byte clauses} ([drop] to [delay]) act on the {e encoded bytes} of
    each frame as it crosses the channel. Every byte clause whose [from]
    and [label] match a frame applies to it; per kind, the first matching
    clause that names the kind wins. So
    [kind=drop,rate=0.1;kind=corrupt,rate=0.2] both drops and corrupts,
    while a later [drop] clause matching the same frame is shadowed.

    All randomness comes from the model's own seed — protocol runs stay
    reproducible, and the parties' coin streams are untouched, so a run
    that survives the faults produces {e exactly} the output of the
    fault-free run (the reliability layer delivers intact bytes or
    nothing). See docs/ROBUSTNESS.md for the full semantics. *)

(** {1 The spec} *)

type kind =
  | Drop  (** lose the frame *)
  | Corrupt  (** flip one uniformly random bit *)
  | Truncate  (** cut to a uniformly random proper prefix *)
  | Duplicate  (** deliver the frame twice *)
  | Delay  (** deliver it ~[delay] seconds late *)
  | Crash
  | Straggle
  | Byzantine

(** How a byzantine clause perturbs a decoded answer (the transform
    itself lives in [Matprod_verify.Verify.corrupt], which knows the
    answer shapes). *)
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

(** One parsed clause. Absent keys are [None]. Only {!parse} builds
    clauses, so every one has passed its kind's validation. *)
type clause = private {
  kind : kind;
  rate : float option;
  party : Transcript.party option;  (** two-party victim / sender scope *)
  worker : int option;  (** fleet victim rank *)
  label : string option;
  after : int option;
  burst : int option;
  delay_s : float option;
  mode : byzantine_mode option;
  permanent : bool;
}

type spec = clause list

val parse : string -> (spec, string) result
(** The empty string (or only separators) parses to []. Errors name the
    offending clause and key; per-kind validation happens here, not when
    the model is built deep inside a run. *)

val to_string : spec -> string
(** Canonical form: keys in a fixed order, defaults omitted.
    [parse (to_string spec) = Ok spec], so specs survive journals, JSON
    reports, and shell pipelines unchanged. *)

(** {1 Models} *)

type t
(** A spec armed with its seeded draw streams and one-shot state. *)

val create : ?scope_worker:int -> seed:int -> spec -> t option
(** The spec as one model, or [None] when no clause applies to the scope.
    Byte clauses apply everywhere; a crash, straggle or byzantine clause
    with no [worker] key applies to every rank, one with a [worker] key
    only when [scope_worker] names that rank (never outside a fleet).
    A fleet crash clause with no [party] kills Alice, the side a worker
    speaks as on its link. *)

val for_link :
  seed:int -> spec -> rank:int -> replica:int -> attempt:int -> t option
(** The one model for a fleet link attempt ([None] when nothing applies):
    {!create} scoped to [rank], with a per-attempt policy. Crashes fire on
    [attempt] 1 and rearm on every later attempt when a scoped crash
    clause is [permanent]; straggles fire on attempt 1; byzantine clauses
    fire on attempt 1 of [replica] 0, where the replica vote can catch
    them; byte clauses apply to every attempt. The model is seeded
    [seed + 77 + rank] when the spec has byte clauses, else
    [seed + 7919·(rank + 1)]. *)

val of_string : ?seed:int -> string -> t
(** [create ~seed] (default 0) over [parse s], for a spec fixed in code.
    Raises [Invalid_argument] when [s] does not parse or no clause applies
    outside a fleet. *)

(** {1 Crashes}

    Byte clauses mangle bytes; a crash clause kills a {e party}, either
    after a number of logical messages have crossed the channel or at the
    moment the victim is about to speak under a label prefix (a phase
    boundary). When the victim's next [send] trips the clause, the channel
    raises {!Party_crash} {e before} any bytes enter the wire — exactly a
    process dying between messages. A crash fires at most once per model
    (a restarted process does not re-crash); replayed journal messages
    (see {!Journal}) never trip it. *)

exception
  Party_crash of { party : Transcript.party; after_messages : int }
(** [after_messages] is the number of logical messages that completed
    before the crash. Converted to the typed
    [Matprod_core.Outcome.Crashed] by [Outcome.guard]. *)

val check_crash : t -> from:Transcript.party -> label:string -> unit
(** Called by {!Ctx} once per logical message before transmission:
    raises {!Party_crash} if an unfired crash triggers for this sender,
    otherwise counts the message and returns. Emits the [faults_crashed]
    counter and a [fault.crash] trace event when firing. *)

(** {1 Straggles}

    A straggle clause makes a link {e late}. Once [after] logical
    messages have completed, the next [burst] (default 1) physical frames
    (retransmissions included) matching its [from]/[label] scope each pay
    a fixed extra [delay] — no jitter, so tests can place it exactly
    relative to the reliability layer's timeout. A spike larger than the
    timeout forces retransmissions, so the link completes — intact,
    eventually — while accumulating honest simulated waiting; that is
    exactly the signature a fleet deadline uses to flag a straggling
    worker (docs/ROBUSTNESS.md). Once the burst is spent the wire is fast
    again, so a journal resume (or a plain retry) does not pay the spike
    twice. *)

(** {1 Byzantine answers}

    A byzantine clause makes a worker {e lie}: it perturbs the worker's
    decoded shard answer after correct framing. The bytes on the wire are
    intact, so CRC/ARQ pass by construction and only semantic
    verification (replica voting, answer validators — see
    [Matprod_verify.Verify] and docs/ROBUSTNESS.md) can catch it. Each
    byzantine clause draws from its own PRNG, split off the model seed, so
    it never perturbs the byte-clause stream, and it fires once: a fired
    clause stays fired across journal resumes and supervisor reseeds
    while the same model instance is reused. A byzantine clause does
    {e not} make the model {!is_active}. *)

val check_byzantine : t -> (byzantine_mode * Matprod_util.Prng.t) option
(** Called by the topology layer once per decoded shard answer:
    [Some (mode, prng)] if an unfired byzantine clause is armed — it fires
    and the caller corrupts the answer with [mode] using [prng]. Emits
    the [faults_byzantine] counter and a [fault.byzantine] trace event
    when firing. *)

(** {1 The wire} *)

val is_active : t -> bool
(** Whether any byte clause carries a nonzero rate or a straggle is
    armed. The channel engages the reliability layer (framing, acks,
    retries) only on an active model, so an inert one leaves transcripts
    byte-for-byte unchanged. *)

(** Cumulative injection counts since the model was built. *)
type stats = {
  dropped : int;
  corrupted : int;
  truncated : int;
  duplicated : int;
  delayed : int;
  crashed : int;  (** crashes fired *)
  straggled : int;  (** frames hit by a straggle spike *)
  byzantined : int;  (** byzantine clauses fired (answers corrupted) *)
  injected_delay : float;  (** total injected delay, seconds *)
}

val zero_stats : stats
val stats : t -> stats
val total_injected : stats -> int

(** One physical arrival of a (possibly mangled) frame. *)
type delivery = { bytes : string; delay : float }

val apply : t -> from:Transcript.party -> label:string -> string -> delivery list
(** Run the model over one frame: [] means dropped, two elements mean
    duplicated; bytes may be corrupted or truncated and each copy carries
    its injected delay. Emits [faults_*] counters and [fault.<kind>]
    trace events per docs/OBSERVABILITY.md. *)
