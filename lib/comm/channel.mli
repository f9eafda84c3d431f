(** The logical wire between Alice and Bob.

    [send] serialises the value with the supplied codec, charges the
    transcript for the real encoded length, carries the bytes across the
    configured {!Transport} backend, then {e decodes the bytes back} and
    returns the decoded value. Protocol code must use the returned value
    on the receiving side — information that was not actually encoded
    cannot leak across, and lossy codecs (e.g. {!Codec.float32}) lose
    precision exactly as they would on a network.

    By default the channel is perfect and in-process ({!Transport.sim}).
    Configuring a {!Fault} model arms the {!Reliable} stop-and-wait layer
    (CRC32 framing, acks, retransmission with capped exponential backoff),
    and every frame — retransmissions and acks included — is charged to
    the transcript under the message's label (acks under ["<label>/ack"]).
    A message that exhausts its attempts raises {!Reliable.Link_failure};
    corrupted frames are rejected by checksum, so [send] either returns
    exactly the value that a perfect wire would have delivered or fails
    loudly — never a mangled value. An inert fault model (all rates 0)
    leaves the channel byte-for-byte identical to the default. *)

type t

val create :
  ?names:(Transcript.party -> string) -> ?transport:Transport.t -> unit -> t
(** A perfect channel over [?transport] (default {!Transport.sim}; the
    channel owns it and {!close} releases it). [?names] maps the two wire
    roles to display names used for the per-party metrics scope and trace
    attributes (default {!Transcript.party_name}, i.e. ["Alice"]/["Bob"]).
    A fleet link passes e.g. [Alice ↦ "worker3", Bob ↦ "coordinator"] so
    per-link tables aggregate under the right actor. Purely observational:
    transcripts, journals, and codecs never see these names. Faults and
    journals are armed with {!configure}. *)

val configure :
  t ->
  ?fault:Fault.t ->
  ?reliable:Reliable.config ->
  ?journal:Journal.writer ->
  ?replay:Journal.entry list ->
  unit ->
  unit
(** The one arming path:

    - [?fault] arms the wire with a fault model and resets sequence
      numbers and reliability stats; [?reliable] tunes the ARQ layer that
      activates with it (passing [?reliable] without [?fault] raises
      [Invalid_argument]).
    - [?journal] appends every delivered logical message to the writer.
    - [?replay] queues journaled entries to satisfy upcoming [send]s
      before any fresh communication (see {e Crash recovery} below). It
      must be armed before the first message (raises [Invalid_argument]
      otherwise). *)

val transcript : t -> Transcript.t

val transport : t -> Transport.t
(** The physical backend this channel delivers over. *)

val close : t -> unit
(** Flush and close the journal writer (if any) and release the
    transport's OS resources. Idempotent. *)

val installed_fault : t -> Fault.t option
(** The armed fault model, if any — the topology layer reads it back to
    ask for pending {e byzantine} answer corruptions
    ({!Fault.check_byzantine}), which fire at the answer boundary rather
    than on a frame. *)

(** {1 Crash recovery}

    A channel can write a {!Journal} of every logical message it delivers,
    and can {e replay} a previously journaled prefix: while replay entries
    remain, [send] does not touch the wire (no fault model, no reliability
    frames, no transport delivery, no transcript charge) — it checks that
    the sender, label, and freshly encoded bytes match the journaled
    record (the determinism invariant: all randomness derives from the
    seed) and hands the journaled payload to the decoder. See
    docs/ROBUSTNESS.md. *)

(** What replay saved: messages and payload bytes served from the journal
    instead of the wire. *)
type replay_stats = { replayed_messages : int; replayed_bytes : int }

val replay_stats : t -> replay_stats

(** Cumulative reliability-layer accounting for one channel. *)
type stats = {
  data_frames : int;  (** data transmissions, retransmissions included *)
  acks : int;  (** ack transmissions *)
  retries : int;  (** retransmission attempts (attempts beyond the first) *)
  crc_rejects : int;  (** frames discarded for checksum mismatch *)
  giveups : int;  (** messages that exhausted [max_attempts] *)
  waited : float;  (** simulated seconds spent in retransmission timeouts *)
  faults : Fault.stats;
}

val zero_stats : stats

val stats : t -> stats
(** {!zero_stats} when no wire is installed. *)

val send :
  t -> from:Transcript.party -> label:string -> 'a Codec.t -> 'a -> 'a
(** Raises {!Reliable.Link_failure} when an active fault model defeats
    every transmission attempt, {!Codec.Decode_error} if the payload does
    not decode (on an armed wire that requires a 2⁻³² CRC collision),
    {!Fault.Party_crash} when a crash rule fires,
    {!Journal.Replay_mismatch} when a replayed run diverges from its
    journal, and {!Transport.Frame_error} when a [Tcp] backend observes a
    torn or corrupt frame. *)

val encode : 'a Codec.t -> 'a -> string
(** The bytes {!send} puts on the wire for a value, timed under
    [codec_encode_ns]. *)

val send_encoded :
  t -> from:Transcript.party -> label:string -> 'a Codec.t -> string -> 'a
(** [send t ~from ~label codec v] is
    [send_encoded t ~from ~label codec (encode codec v)]: the second half,
    for bytes already encoded with [codec]. A sender whose message is the
    same on many channels (the fleet coordinator's sketches of B) encodes
    it once and sends those bytes on each; every channel still charges,
    journals, replays, faults and decodes its own copy. Raises as
    {!send}. *)
