(** Execution context for one protocol run: the logical wire between Alice
    and Bob together with the run's coins and speaking turns.

    {1 Coins}

    Three independent randomness streams:

    - [public]: the common random string both parties see (used to agree on
      sketching matrices and hash functions, Lemma 2.1 style). Standard
      public-coin convention — it costs no communication, and by Newman's
      theorem it changes the randomized communication complexity by at most
      an additive O(log n) anyway.
    - [alice], [bob]: each party's private coins (e.g. Alice's sampling of
      rows in Algorithm 1, of 1-entries in Algorithms 2–4).

    All three derive deterministically from one integer seed, so a whole
    protocol run (and hence every experiment) is reproducible.

    {1 The wire}

    A message ({!a2b}, {!b2a}) is serialised with the supplied codec; the
    transcript is charged for the real encoded length; the bytes cross the
    run's {!Transport} backend and are then {e decoded back}, and the
    decoded value is returned. Protocol code must use the returned value
    on the receiving side — information that was not actually encoded
    cannot leak across, and lossy codecs (e.g. {!Codec.float32}) lose
    precision exactly as they would on a network.

    By default the wire is perfect and in-process ({!Transport.sim}).
    {!install_wire} arms a {!Fault} model, and with it the {!Reliable}
    stop-and-wait layer (CRC32 framing, acks, retransmission with capped
    exponential backoff). Every frame — retransmissions and acks included —
    is charged to the transcript under the message's label (acks under
    ["<label>/ack"]). A message that exhausts its attempts raises
    {!Reliable.Link_failure}; corrupted frames are rejected by checksum, so
    a message either delivers exactly the value that a perfect wire would
    have delivered or fails loudly — never a mangled value. An inert fault
    model (all rates 0) leaves the wire byte-for-byte identical to the
    default.

    A message raises {!Reliable.Link_failure} when an armed fault model
    defeats every transmission attempt, {!Codec.Decode_error} if the
    payload does not decode (on an armed wire that requires a 2⁻³² CRC
    collision), {!Fault.Party_crash} when a crash rule fires,
    {!Journal.Replay_mismatch} when a replayed run diverges from its
    journal, and {!Transport.Frame_error} when a [Tcp] backend observes a
    torn or corrupt frame.

    {1 Crash recovery}

    A run can write a {!Journal} of every logical message it delivers
    ({!run_journaled}) and can {e replay} a previously journaled prefix
    ({!resume}). While replay entries remain, a message does not touch the
    wire (no fault model, no reliability frames, no transport delivery, no
    transcript charge): it checks that the sender, label, and freshly
    encoded bytes match the journaled record (the determinism invariant:
    all randomness derives from the seed) and hands the journaled payload
    to the decoder. A resumed run therefore costs zero fresh bits up to
    the crash point, and only then touches the wire. See
    docs/ROBUSTNESS.md.

    Only this module arms a wire: {!install_wire} (fault model and ARQ),
    {!run_journaled} (journal writer) and {!resume} (replay queue and
    reopened writer). *)

type chan
(** The wire's mutable state: transcript, party names, transport, fault
    and ARQ state, journal writer and replay queue. Copies of a context
    made with [{ ctx with ... }] share it. *)

type t = {
  chan : chan;
  seed : int;
  public : Matprod_util.Prng.t;
  alice : Matprod_util.Prng.t;
  bob : Matprod_util.Prng.t;
  turn : Transcript.party -> unit;
      (** Called with the sending party just before each message goes on
          the wire. {!create} sets it to a no-op; the batched engine sets
          it on each exchange group's context to yield the speaking turn
          to its scheduler. *)
}

val create :
  ?names:(Transcript.party -> string) ->
  ?transport:Transport.t ->
  seed:int ->
  unit ->
  t
(** A context at [seed] on a perfect wire over [?transport] (default
    {!Transport.sim}; the context owns it). [?names] maps the two wire
    roles to display names used for the per-party metrics scope and trace
    attributes (default {!Transcript.party_name}, i.e. ["Alice"]/["Bob"]);
    purely observational — transcripts, journals and codecs never see
    them. A protocol run goes through {!run}, {!run_journaled} or
    {!resume}, which create, arm, cost and close the context; [create] is
    for code that drives a context by hand. *)

val install_wire :
  t -> fault:Fault.t -> ?reliable:Reliable.config -> unit -> unit
(** Arm the wire with a fault model, resetting sequence numbers and
    reliability stats; [?reliable] tunes the ARQ layer that activates with
    it (default {!Reliable.default_config}). Call before the first
    message; typically the first thing a chaos run does inside {!run}'s
    body. *)

val installed_fault : t -> Fault.t option
(** The armed fault model, if any — the topology layer reads it back to
    ask for pending {e byzantine} answer corruptions
    ({!Fault.check_byzantine}), which fire at the answer boundary rather
    than on a frame. *)

(** Cumulative reliability-layer accounting for one run. *)
type stats = {
  data_frames : int;  (** data transmissions, retransmissions included *)
  acks : int;  (** ack transmissions *)
  retries : int;  (** retransmission attempts (attempts beyond the first) *)
  crc_rejects : int;  (** frames discarded for checksum mismatch *)
  giveups : int;  (** messages that exhausted [max_attempts] *)
  waited : float;  (** simulated seconds spent in retransmission timeouts *)
  faults : Fault.stats;
}

val wire_stats : t -> stats
(** All zeros on a perfect wire. *)

val a2b : t -> label:string -> 'a Codec.t -> 'a -> 'a
(** Alice speaks: [t.turn Alice], then the message crosses the wire.
    Returns Bob's decoded copy. *)

val b2a : t -> label:string -> 'a Codec.t -> 'a -> 'a
(** Bob speaks. Returns Alice's decoded copy. *)

val encode : 'a Codec.t -> 'a -> string
(** The bytes a message puts on the wire for a value, timed under
    [codec_encode_ns]. *)

val b2a_encoded : t -> label:string -> 'a Codec.t -> string -> 'a
(** [b2a t ~label codec v] is [b2a_encoded t ~label codec (encode codec v)]:
    the second half, for bytes already encoded with [codec]. A sender whose
    message is the same on many wires (the fleet coordinator's sketches of
    B) encodes it once and sends those bytes on each; every wire still
    charges, journals, replays, faults and decodes its own copy. *)

val transcript : t -> Transcript.t

(** Outcome of a protocol run with its cost. [bits]/[rounds] count fresh
    communication only; messages served from a journal during resume are
    reported in [replayed_*]. *)
type 'r run = {
  output : 'r;
  bits : int;
  rounds : int;
  transcript : Transcript.t;
  replayed_messages : int;
  replayed_bits : int;
}

val run :
  ?names:(Transcript.party -> string) ->
  ?transport:Transport.t ->
  seed:int ->
  (t -> 'r) ->
  'r run
(** Create a context at [seed] ({!create}), run the body in it and close
    it — flush the journal writer, if any, and release the transport's OS
    resources — even when the body raises. A fleet link names its parties
    ["worker<i>"]/["coordinator"], the default keeps ["Alice"]/["Bob"].
    Each run is a [ctx.run] span and ticks [ctx_runs], [bits_sent_total],
    [rounds_total] and [ctx_run_ns]. A body that must be charged for a
    failed protocol catches the failure itself (as [Outcome.guard] does)
    and returns it, so the record still carries the bits sent. *)

val run_journaled :
  ?names:(Transcript.party -> string) ->
  ?transport:Transport.t ->
  seed:int ->
  journal:string ->
  protocol:string ->
  (t -> 'r) ->
  'r run
(** {!run} that journals every delivered message to file [journal]
    (truncated first). The writer is closed on exit even when the body
    raises (the journal then holds the completed prefix — exactly what
    {!resume} needs). *)

val resume :
  ?names:(Transcript.party -> string) ->
  ?transport:Transport.t ->
  seed:int ->
  ?path:string ->
  journal:Journal.t ->
  (t -> 'r) ->
  'r run
(** {!run} that first replays the journal's entries, then continues on
    the wire. A run resumed from a complete journal costs 0 fresh bits.
    Raises [Invalid_argument] if the journal's seed differs from [seed].
    With [?path], the journal file is rewritten (dropping any torn tail)
    and fresh messages are appended to it, so a later crash resumes even
    further. *)
