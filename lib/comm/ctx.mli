(** Execution context for one protocol run.

    Bundles the channel with three independent randomness streams:

    - [public]: the common random string both parties see (used to agree on
      sketching matrices and hash functions, Lemma 2.1 style). Standard
      public-coin convention — it costs no communication, and by Newman's
      theorem it changes the randomized communication complexity by at most
      an additive O(log n) anyway.
    - [alice], [bob]: each party's private coins (e.g. Alice's sampling of
      rows in Algorithm 1, of 1-entries in Algorithms 2–4).

    All three derive deterministically from one integer seed, so a whole
    protocol run (and hence every experiment) is reproducible. *)

type t = {
  chan : Channel.t;
  seed : int;
  public : Matprod_util.Prng.t;
  alice : Matprod_util.Prng.t;
  bob : Matprod_util.Prng.t;
  turn : Transcript.party -> unit;
      (** Called by {!send} with the sending party just before the message
          goes on the channel. {!create} sets it to a no-op; the batched
          engine sets it on each exchange group's context to yield the
          speaking turn to its scheduler. *)
}

val create : ?transport:Transport.t -> seed:int -> unit -> t
(** [?transport] picks the physical backend under the channel (default
    {!Transport.sim} — the historical in-process wire). The context owns
    the transport; {!close} releases it. A protocol run goes through
    {!run}, {!run_journaled} or {!resume}, which create, arm, cost and
    close the context; [create] is for code that drives a context by
    hand. *)

val install_wire :
  t -> fault:Fault.t -> ?reliable:Reliable.config -> unit -> unit
(** Arm the context's channel with a fault model (see {!Channel.configure}).
    Call before the first message; typically the first thing a chaos run
    does inside {!run}'s body. *)

val wire_stats : t -> Channel.stats
(** Reliability/fault accounting for this run ({!Channel.zero_stats} on a
    perfect wire). *)

val installed_fault : t -> Fault.t option
(** The fault model armed by {!install_wire}, if any (see
    {!Channel.installed_fault}). *)

val send :
  t -> from:Transcript.party -> label:string -> 'a Codec.t -> 'a -> 'a
(** [t.turn from], then {!Channel.send} on [t.chan]. *)

val a2b : t -> label:string -> 'a Codec.t -> 'a -> 'a
(** Alice speaks. *)

val b2a : t -> label:string -> 'a Codec.t -> 'a -> 'a
(** Bob speaks. *)

val b2a_encoded : t -> label:string -> 'a Codec.t -> string -> 'a
(** Bob speaks bytes already encoded with the codec ({!Channel.encode}):
    [t.turn Bob], then {!Channel.send_encoded}. Returns Alice's decoded
    copy. *)

val transcript : t -> Transcript.t

(** {1 Crash recovery}

    A context can journal its run (every delivered logical message goes to
    a write-ahead log) and can resume from a journal: the channel replays
    the journaled prefix byte-for-byte — zero fresh bits, each message
    checked against the log — and only then touches the wire. Works
    because {e all} protocol randomness derives from the context seed, so
    a restarted run re-derives the same messages. {!run_journaled} and
    {!resume} arm it. *)

val close : t -> unit
(** Flush and close the journal writer, if any, and release the
    transport's OS resources ({!Channel.close}). Idempotent; every [run]
    path calls it on exit, exceptions included. *)

val transport : t -> Transport.t
(** The physical backend this context's channel delivers over. *)

val replay_stats : t -> Channel.replay_stats

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
(** Create a context at [seed], run the body in it and close it, even when
    the body raises. [?names] renames the two wire roles for
    observability (metrics scopes, trace attributes; see
    {!Channel.create}): a fleet link names its parties
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
