(* serve: the estimator daemon; loadgen: its load generator. *)

open Cli

module Server = Matprod_serve.Server
module Loadgen = Matprod_serve.Loadgen

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind/connect (dotted quad).")

let serve c host port journal_dir grace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg = { Server.host; port; journal_dir; grace_s = grace } in
  let t = Server.create cfg in
  (* stop only flips an atomic, so it is safe inside a signal handler;
     the accept loop notices within its poll interval and drains. *)
  let on_signal = Sys.Signal_handle (fun _ -> Server.stop t) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  if not c.json then
    Printf.printf "matprod serve: listening on %s:%d (journals: %s)\n%!" host
      (Server.port t)
      (Option.value journal_dir ~default:"off");
  Server.serve t;
  let s = Server.stats t in
  say c
    "matprod serve: drained — %d sessions, %d batches, %d queries, %d batch \
     errors\n"
    s.Server.sessions s.Server.batches s.Server.queries s.Server.batch_errors;
  finish c
    [
      ("subcommand", Obs.Json.String "serve");
      ("host", Obs.Json.String host);
      ("port", Obs.Json.Int (Server.port t));
      ("sessions", Obs.Json.Int s.Server.sessions);
      ("batches", Obs.Json.Int s.Server.batches);
      ("queries", Obs.Json.Int s.Server.queries);
      ("batch_errors", Obs.Json.Int s.Server.batch_errors);
    ]

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 7453
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let journal_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Write a per-batch journal under $(docv) (created if missing); \
             a client that reconnects after a daemon crash and re-requests \
             a batch resumes it from the journal with zero fresh bits.")
  in
  let grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Drain budget on shutdown: live sessions get $(docv) seconds to \
             finish before their sockets are cut.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the estimator daemon: register or synthesise matrix pairs, \
          then answer concurrent batched estimator sessions over TCP until \
          SIGTERM/SIGINT, draining cleanly (docs/SERVING.md).")
    Term.(
      const serve $ common_term $ host_arg $ port_arg $ journal_dir_arg
      $ grace_arg)

let loadgen c host port connections batches queries specs =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let { n; density; seed; _ } = c in
  let specs = if specs = [] then [ "norm:eps=0.25" ] else specs in
  let r =
    Loadgen.run ~host ~port ~connections ~batches ~queries ~n ~density ~seed
      ~specs ()
  in
  say c "loadgen: %d connections x %d batches x %d queries against %s:%d\n"
    r.Loadgen.connections r.Loadgen.batches_per_connection
    r.Loadgen.queries_per_batch host port;
  say c "answered          : %d/%d (%d errors)\n" r.Loadgen.answered
    r.Loadgen.queries r.Loadgen.errors;
  say c "peak in flight    : %d queries\n" r.Loadgen.in_flight;
  say c "throughput        : %.0f queries/s over %.3f s\n" r.Loadgen.qps
    (float_of_int r.Loadgen.elapsed_ns /. 1e9);
  say c "latency           : p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n"
    (float_of_int r.Loadgen.p50_ns /. 1e6)
    (float_of_int r.Loadgen.p90_ns /. 1e6)
    (float_of_int r.Loadgen.p99_ns /. 1e6);
  say c "transcript        : %d bits (%d replayed)\n" r.Loadgen.bits
    r.Loadgen.replayed_bits;
  say c "response digest   : %d\n" r.Loadgen.digest;
  let fields =
    [
      ("subcommand", Obs.Json.String "loadgen");
      ("host", Obs.Json.String host);
      ("port", Obs.Json.Int port);
      ("connections", Obs.Json.Int r.Loadgen.connections);
      ("batches_per_connection", Obs.Json.Int r.Loadgen.batches_per_connection);
      ("queries_per_batch", Obs.Json.Int r.Loadgen.queries_per_batch);
      ("queries", Obs.Json.Int r.Loadgen.queries);
      ("answered", Obs.Json.Int r.Loadgen.answered);
      ("errors", Obs.Json.Int r.Loadgen.errors);
      ("in_flight", Obs.Json.Int r.Loadgen.in_flight);
      ("elapsed_ns", Obs.Json.Int r.Loadgen.elapsed_ns);
      ("queries_per_sec", Obs.Json.Float r.Loadgen.qps);
      ("p50_ns", Obs.Json.Int r.Loadgen.p50_ns);
      ("p90_ns", Obs.Json.Int r.Loadgen.p90_ns);
      ("p99_ns", Obs.Json.Int r.Loadgen.p99_ns);
      ("bits", Obs.Json.Int r.Loadgen.bits);
      ("replayed_bits", Obs.Json.Int r.Loadgen.replayed_bits);
      ("digest", Obs.Json.Int r.Loadgen.digest);
    ]
  in
  if r.Loadgen.errors > 0 then
    fail c fields
      (Printf.sprintf "%d of %d queries failed" r.Loadgen.errors
         r.Loadgen.queries)
  else finish c fields

let loadgen_cmd =
  let port_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Port of the serve daemon.")
  in
  let connections_arg =
    Arg.(
      value & opt int 8
      & info [ "connections" ] ~docv:"C" ~doc:"Concurrent client sessions.")
  in
  let batches_arg =
    Arg.(
      value & opt int 8
      & info [ "batches" ] ~docv:"B"
          ~doc:"Pipelined batch requests per connection.")
  in
  let queries_arg =
    Arg.(
      value & opt int 16
      & info [ "queries" ] ~docv:"Q" ~doc:"Queries per batch.")
  in
  let specs_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "q"; "query" ] ~docv:"SPEC"
          ~doc:
            "Query specs cycled to fill each batch (default norm:eps=0.25).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a serve daemon with C connections x B pipelined batches x Q \
          queries, report queries/sec with p50/p90/p99 latency, and exit \
          non-zero on any error (docs/SERVING.md).")
    Term.(
      const loadgen $ common_term $ host_arg $ port_arg $ connections_arg
      $ batches_arg $ queries_arg $ specs_arg)
