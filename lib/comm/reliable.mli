(** Checksummed framing and retransmission policy for the unreliable wire.

    When a {!Fault} model is active on a channel, every logical message is
    wrapped in a frame

    {v kind(1B) ++ seq(uvarint) ++ |payload|(uvarint) ++ payload ++ CRC32(4B) v}

    and delivered stop-and-wait: the receiver acks each data frame (acks
    are framed the same way and cross the same faulty wire), and the
    sender retransmits on a missing or corrupted ack with capped
    exponential backoff. A frame whose CRC32 does not match — corruption
    and truncation both land here — is discarded as if dropped, so the
    payload that finally decodes is byte-for-byte the payload that was
    sent: the wire can fail, but it cannot lie. Every transmitted frame,
    including retransmissions and acks, is charged to the transcript by
    {!Ctx}. *)

exception Link_failure of { label : string; attempts : int }
(** Raised when a {!Ctx} message is still unacknowledged after
    [max_attempts] transmissions. [Matprod_core.Outcome.capture] converts
    it into a typed error. *)

type config = {
  max_attempts : int;  (** transmissions per message before giving up *)
  base_timeout : float;  (** initial retransmission timeout, seconds *)
}

val default_config : config
(** 16 attempts, 50 ms initial timeout. *)

val config : ?max_attempts:int -> ?base_timeout:float -> unit -> config
(** Raises [Invalid_argument] unless [max_attempts >= 1] and
    [0 < base_timeout <= 1.6] (the backoff cap, in seconds). *)

val next_timeout : float -> float
(** One backoff step: [min 1.6 (2 * t)]. *)

(** {1 Frames} *)

type kind = Data | Ack

val data_frame : seq:int -> string -> string
val ack_frame : seq:int -> string

val parse : string -> (kind * int * string, string) result
(** Validate and split a frame. Never raises: truncated, bit-flipped, or
    otherwise malformed frames return [Error reason] (a CRC32 collision —
    probability 2⁻³² per corrupt frame — is the only way mangled bytes
    get through). *)

val crc32 : string -> int
(** IEEE CRC32 (the zlib/PNG polynomial), exposed for tests. *)
