(** Physical transports under the logical wire of a {!Ctx}.

    A transport is a plain record of closures over one connection's state.
    It carries one already-encoded logical message ("the payload
    the receiver accepted" — after the fault model and the {!Reliable}
    ARQ, if armed, have done their work) from one party to the other and
    hands back the bytes the receiver observed. The {!Ctx} charges
    the transcript {e before} delivery, so two backends that deliver
    faithfully produce byte-identical transcripts at the same seed:

    - {!sim} — the historical in-process wire: delivery is the identity
      on the payload. Zero overhead, and the default everywhere, so every
      pre-existing gallery keeps passing bit-for-bit.
    - {!tcp_loopback} — a real loopback socket pair: the payload crosses a Unix
      TCP connection framed as [len(4B BE) ++ flags(1B) ++ [ctx(18B)] ++
      payload ++ CRC32(4B)], where [ctx] is the out-of-band 18-byte
      telemetry context frame ({!Matprod_obs.Trace.context_frame}),
      present when tracing is on (flags bit 0). Frame overhead is
      physical, not logical: the transcript still prices exactly the
      payload bytes, as with {!sim}.

    Both ends of the loopback pair live in this process, so [deliver]
    interleaves writing and reading via [select] — a message larger than
    the socket buffers cannot deadlock the caller.

    The same frame grammar is the unit of the [matprod serve] wire
    protocol; the blocking {!write_frame}/{!read_frame} helpers are the
    daemon's I/O layer. *)

type t = {
  name : string;
  deliver : from:Transcript.party -> label:string -> string -> string;
      (** the exact bytes the receiving party observes *)
  close : unit -> unit;  (** release OS resources; idempotent *)
}
(** A backend: closures over its live connection state. *)

val sim : unit -> t
(** The in-process simulator: delivery is the identity. *)

val tcp_loopback : unit -> t
(** Open a fresh 127.0.0.1 socket pair (ephemeral port, [TCP_NODELAY]);
    each [deliver] frames the payload, pushes it through the kernel, and
    reads it back on the peer end. Raises {!Frame_error} on a checksum
    mismatch or a torn read. *)

type factory = unit -> t
(** Transports hold OS state, so multi-attempt drivers ({!Supervisor},
    fleet links) take a factory and open a fresh connection per attempt. *)

(** {1 Frame grammar}

    Shared by the [Tcp] backend and the serve daemon. *)

exception Frame_error of string

val frame : string -> string
(** Encode one payload as a self-delimiting frame. The telemetry context
    rides along (flags bit 0) when {!Matprod_obs.Trace.enabled}. *)

val unframe : string -> string * string option
(** Decode a complete frame back to [(payload, ctx)] where [ctx] is the
    raw 18-byte telemetry context frame when present. Raises
    {!Frame_error} on bad length, bad flags, or CRC mismatch. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking: frame the payload and write it fully. *)

val read_frame : Unix.file_descr -> string
(** Blocking: read one full frame, return its payload (context frame, if
    any, is dropped). Raises [End_of_file] on a cleanly closed peer and
    {!Frame_error} on a torn or corrupt frame. *)
