(* S1: the serve daemon under concurrent load. An in-process daemon
   (ephemeral loopback port) faces the closed-loop load generator: every
   connection pipelines all its batches before reading anything, so the
   peak number of simultaneously in-flight queries is measured, not
   assumed. The workload is fixed-size regardless of --quick: the gate's
   headline number is "≥ 1000 concurrent in-flight queries on loopback",
   and shrinking it would gut the claim.

   Determinism: session seeds derive from (seed, connection index), so
   answered counts, transcript bits, and the response-payload digest are
   exact fields in BENCH_s1.json — the regression gate compares them
   bit-for-bit while throughput and latency percentiles ride along as
   ignored timing fields. The run executes twice against the same daemon
   to confirm the digest in-process before the gate ever sees it; the
   second run goes uncounted, so the sidecar's metrics describe the row's
   run alone. *)

module Server = Matprod_serve.Server
module Loadgen = Matprod_serve.Loadgen
module Json = Matprod_obs.Json
module Metrics = Matprod_obs.Metrics

let connections = 16
let batches = 8
let queries = 16
let n = 24
let density = 0.2
let seed = 42
let specs = [ "norm:eps=0.25"; "top:k=3"; "rows:beta=0.5"; "l0:count=1" ]

let ms ns = float_of_int ns /. 1e6

let s1 ~quick =
  ignore quick;
  Report.section ~id:"S1  serve daemon: concurrent batched query sessions"
    ~claim:
      "the matprod serve daemon sustains >= 1000 concurrent in-flight \
       queries on loopback with every answer accounted for, and its \
       response stream is a deterministic function of the load seed";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let srv = Server.create Server.default_config in
  let th = Server.serve_background srv in
  let stop () =
    Server.stop srv;
    Thread.join th
  in
  Fun.protect ~finally:stop @@ fun () ->
  let run () =
    Loadgen.run ~port:(Server.port srv) ~connections ~batches ~queries ~n
      ~density ~seed ~specs ()
  in
  let r = run () in
  let served =
    List.map
      (fun name -> Metrics.total name)
      [ "serve_sessions"; "serve_batches"; "serve_queries" ]
  in
  let r2 =
    let on = Metrics.enabled () in
    Metrics.set_enabled false;
    Fun.protect ~finally:(fun () -> Metrics.set_enabled on) run
  in
  let cols =
    [ ("run", 6); ("answered", 9); ("in-flight", 9); ("qps", 9);
      ("p50", 8); ("p90", 8); ("p99", 8); ("bits", 10); ("digest", 10) ]
  in
  Report.table_header cols;
  List.iter
    (fun (tag, (x : Loadgen.report)) ->
      Report.row cols
        [ tag;
          Printf.sprintf "%d/%d" x.Loadgen.answered x.Loadgen.queries;
          string_of_int x.Loadgen.in_flight;
          Printf.sprintf "%.0f" x.Loadgen.qps;
          Printf.sprintf "%.1fms" (ms x.Loadgen.p50_ns);
          Printf.sprintf "%.1fms" (ms x.Loadgen.p90_ns);
          Printf.sprintf "%.1fms" (ms x.Loadgen.p99_ns);
          Report.fbits x.Loadgen.bits;
          string_of_int x.Loadgen.digest ])
    [ ("first", r); ("again", r2) ];
  Report.bench_row
    [
      ("connections", Json.Int r.Loadgen.connections);
      ("batches_per_connection", Json.Int r.Loadgen.batches_per_connection);
      ("queries_per_batch", Json.Int r.Loadgen.queries_per_batch);
      ("queries", Json.Int r.Loadgen.queries);
      ("answered", Json.Int r.Loadgen.answered);
      ("errors", Json.Int r.Loadgen.errors);
      ("in_flight", Json.Int r.Loadgen.in_flight);
      ("bits", Json.Int r.Loadgen.bits);
      ("replayed_bits", Json.Int r.Loadgen.replayed_bits);
      ("digest", Json.Int r.Loadgen.digest);
      ("elapsed_ns", Json.Int r.Loadgen.elapsed_ns);
      ("queries_per_sec", Json.Float r.Loadgen.qps);
      ("p50_ns", Json.Int r.Loadgen.p50_ns);
      ("p90_ns", Json.Int r.Loadgen.p90_ns);
      ("p99_ns", Json.Int r.Loadgen.p99_ns);
    ];
  Report.record_verdict
    (r.Loadgen.answered = r.Loadgen.queries && r.Loadgen.errors = 0)
    "every query answered (%d/%d, %d errors)" r.Loadgen.answered
    r.Loadgen.queries r.Loadgen.errors;
  Report.record_verdict
    (r.Loadgen.in_flight >= 1000)
    "peak concurrent in-flight queries %d >= 1000" r.Loadgen.in_flight;
  Report.record_verdict
    (r.Loadgen.in_flight = r.Loadgen.queries)
    "every submitted query was in flight at once (%d of %d)"
    r.Loadgen.in_flight r.Loadgen.queries;
  Report.record_verdict
    (r.Loadgen.digest = r2.Loadgen.digest && r.Loadgen.bits = r2.Loadgen.bits)
    "response stream deterministic: digest %d and %d bits reproduce"
    r.Loadgen.digest r.Loadgen.bits;
  let row =
    [
      r.Loadgen.connections;
      r.Loadgen.connections * r.Loadgen.batches_per_connection;
      r.Loadgen.queries;
    ]
  in
  let show l = String.concat "/" (List.map string_of_int l) in
  Report.record_verdict (served = row)
    "metrics count the row's run: sessions/batches/queries %s = %s"
    (show served) (show row)
