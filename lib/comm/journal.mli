(** Write-ahead log of a protocol transcript, for crash recovery.

    A journal records every {e logical} message of a run — sender, label,
    and the exact codec-encoded payload — together with the run's seed and
    a protocol id. Because every coin in a run derives from the seed
    (parties' streams are split off it, the fault model is separate), the
    logical transcript is a deterministic function of the seed: a restarted
    run re-derives the same values, so {!Ctx.resume} can replay journaled
    messages byte-for-byte, charging zero fresh communication up to the
    crash point, and assert along the way that each re-encoded message
    equals the journaled bytes.

    {2 File format}

    All integers are LEB128 varints (zigzag for the seed). Each record is
    independently CRC32-guarded, so a torn tail — the expected debris of a
    crash mid-append — is detected and dropped rather than trusted:

    Version 3 marks the engine's fused message order (since version 2)
    with ℓ0 column sketches in their shorter form (since version 3);
    {!of_bytes} refuses any other version, so an older log is never
    replayed.

    {v
    header: "MPJ1" ++ version(1B = 0x03) ++ |protocol| ++ protocol ++ zigzag(seed)
    entry : 'M'(1B) ++ body ++ CRC32(body)(4B LE)
    body  : sender(1B: 0 = Alice, 1 = Bob) ++ |label| ++ label ++ |payload| ++ payload
    trace : 'T'(1B) ++ trace_id(8B LE) ++ CRC32(trace_id)(4B LE)
    v}

    ['T'] records are out-of-band telemetry written only when tracing is
    enabled: they store the writing run's stable trace id so a resumed run
    can cross-link its spans to the crashed run's trace. Replay ignores
    them — they never count as entries, transcript bits, or journal bytes
    (their size is charged to the [telemetry_bytes] counter), so a journal
    written with tracing on replays byte-identically to one written with
    tracing off.

    Parsing is total: malformed input yields [Error] (bad header) or a
    clean prefix of entries with [clean = false] (bad record), never an
    exception and never allocation beyond the input size. *)

type entry = {
  sender : Transcript.party;
  label : string;
  payload : string;  (** the codec-encoded bytes that crossed the wire *)
}

val entry_bytes : entry -> int
(** Payload bytes — what the transcript charged for the message. *)

type t = {
  protocol : string;
  seed : int;
  entries : entry list;  (** in send order; the clean prefix of the log *)
  clean : bool;
      (** [false] when trailing bytes (a torn or corrupted record) were
          discarded — normal after a crash mid-append *)
  origin_trace : int64 option;
      (** Stable trace id of the run that wrote the journal, when it ran
          with tracing enabled; first ['T'] record wins. *)
}

exception
  Replay_mismatch of { label : string; reason : string }
(** Raised by the channel when a resumed run diverges from its journal:
    different sender, label, or payload bytes than recorded. Indicates a
    journal from a different seed/protocol or genuine nondeterminism;
    converted to a typed [Outcome.Protocol_failure] by [Outcome.guard]. *)

(** {1 Serialisation} *)

val to_bytes : protocol:string -> seed:int -> entry list -> string

val of_bytes : string -> (t, string) result
(** [Error reason] if the header is unusable; otherwise [Ok t] with the
    longest prefix of records that frame and checksum correctly. *)

val crc32 : entry -> int
(** CRC32 of the entry's record body, as stored in the file. *)

(** {1 Files} *)

val load : string -> (t, string) result
(** Read and parse a journal file. [Error] covers unreadable files and bad
    headers; torn tails come back as [Ok {clean = false; _}]. *)

(** {1 Appending}

    A writer flushes after every record, so entries survive the writing
    process dying at any point (the in-flight record is the only loss, and
    parsing drops it). *)

type writer

val create : path:string -> protocol:string -> seed:int -> writer
(** Truncate [path] and start a fresh journal. Raises [Sys_error] when the
    file cannot be opened. *)

val reopen : path:string -> t -> writer
(** Rewrite [path] with [t]'s header and clean entries, positioned to
    append — how a resumed run continues its journal past a torn tail. *)

val append : writer -> sender:Transcript.party -> label:string -> payload:string -> unit
val close : writer -> unit
(** Idempotent. *)
