(** The [matprod serve] daemon: a long-lived estimator service.

    One server holds a registry of named matrix pairs and one shared
    {!Matprod_engine.Engine}, accepts concurrent connections on a TCP
    socket, and runs each connection as a session: [Hello] fixes the
    session seed, then any mix of [Gen]/[Register]/[Batch] requests,
    pipelined at will — the server answers in request order per
    connection while other sessions proceed on their own threads. Every
    batch runs at its own seed, so the engine holds only the last batch's
    sketch families and messages.

    Concurrency model: connection I/O is thread-per-session; everything
    that touches shared state (the pair registry, the engine and what it
    holds, the {!Matprod_util.Pool} fan-out, metrics, journals) runs
    under one compute lock — a single execution engine fed by many
    pipelined sessions. Each batch executes inside a per-session
    {!Matprod_obs.Metrics} scope ([session<n>]) so per-session tables
    survive aggregation.

    Crash recovery: with a journal directory configured, every batch
    writes a write-ahead journal named by [(session_seed, batch_id)]
    ({!Proto.journal_name}). A re-requested batch whose journal already
    exists resumes through {!Matprod_comm.Ctx.resume} — a completed
    prefix is replayed with zero fresh bits.

    Shutdown: {!stop} is async-signal-safe (it only flips an atomic); the
    accept loop notices within its poll interval, stops accepting, drains
    live sessions for a grace period, force-closes stragglers, then
    {!Matprod_util.Pool.shutdown} joins the worker domains. *)

type config = {
  host : string;  (** default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral; read the bound port back with {!port} *)
  journal_dir : string option;
      (** created if missing; [None] disables batch journaling *)
  grace_s : float;  (** drain budget before live sessions are cut *)
}

val default_config : config
(** 127.0.0.1:0, no journaling, 5 s grace. *)

type t

val create : config -> t
(** Bind and listen (raises [Unix.Unix_error] on a busy port). The
    socket is live from here on — a client may connect before {!serve}
    starts accepting. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val serve : t -> unit
(** Run the accept loop on the calling thread until {!stop}; returns
    after the drain completes. *)

val stop : t -> unit
(** Request shutdown. Async-signal-safe and idempotent; callable from a
    [Sys.Signal_handle]. *)

val serve_background : t -> Thread.t
(** {!serve} on a fresh thread — for tests and in-process benches. *)

(** Cumulative accounting, readable after {!serve} returns. *)
type stats = {
  sessions : int;
  batches : int;
  queries : int;
  batch_errors : int;
}

val stats : t -> stats
