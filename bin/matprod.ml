(* matprod — command-line driver for the distributed matrix-product
   estimation protocols.

   Each subcommand generates a synthetic workload (or a lower-bound hard
   instance), runs one of the paper's protocols inside the bit-accurate
   two-party simulator, and prints the estimate, the exact answer, and the
   transcript cost. *)

open Cmdliner

module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product
module Ctx = Matprod_comm.Ctx
module Transcript = Matprod_comm.Transcript
module Chaos = Matprod_comm.Chaos
module Journal = Matprod_comm.Journal
module Outcome = Matprod_core.Outcome
module Supervisor = Matprod_core.Supervisor
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry
module Engine = Matprod_engine.Engine
module Fleet = Matprod_topology.Fleet
module Shard = Matprod_topology.Shard
module Workload = Matprod_workload.Workload
module Obs = Matprod_obs

(* ------------------------------------------------------------------ *)
(* Shared plumbing: every subcommand takes the same workload and
   observability options through one [common] term instead of each
   command re-declaring (and re-threading) seven arguments. *)

type trace_format = Jsonl | Chrome
type backend = Sim | Tcp

type common = {
  n : int;
  density : float;
  seed : int;
  verbose : bool;
  domains : int option;
  json : bool;
  trace : string option;
  trace_format : trace_format;
  transport : backend;
}

(* Cross-field checks a per-flag converter cannot express: the first one
   that fails is a usage error (exit 124), like a malformed flag. *)
let validated checks run =
  match List.find_opt fst checks with
  | Some (_, msg) -> `Error (true, msg)
  | None -> `Ok (run ())

let common_term =
  let n_arg =
    Arg.(
      value & opt int 256 & info [ "n"; "size" ] ~docv:"N" ~doc:"Matrix dimension.")
  in
  let density_arg =
    Arg.(
      value
      & opt float 0.05
      & info [ "density" ] ~docv:"D" ~doc:"Fill probability of each entry.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Print the per-message transcript breakdown.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Fan per-row sketch loops out over $(docv) domains (default 1 \
             = sequential). Estimates and transcripts are byte-identical at \
             any value (docs/PERFORMANCE.md).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print a single-line JSON run summary (schema matprod.run.v1, see \
             docs/OBSERVABILITY.md) instead of the human-readable report.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write spans and per-message events as JSON lines to $(docv).")
  in
  let trace_format_arg =
    Arg.(
      value
      & opt (enum [ ("jsonl", Jsonl); ("chrome", Chrome) ]) Jsonl
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "Trace file format: $(b,jsonl) (one span object per line) or \
             $(b,chrome) (Chrome trace-event JSON, loadable in Perfetto or \
             chrome://tracing).")
  in
  let transport_arg =
    Arg.(
      value
      & opt (enum [ ("sim", Sim); ("tcp", Tcp) ]) Sim
      & info [ "transport" ] ~docv:"WIRE"
          ~doc:
            "Carry the protocol's logical messages over $(b,sim) (the \
             in-process simulator, default) or $(b,tcp) (framed messages \
             over a real loopback socket). Transcripts, estimates and \
             coin flips are byte-identical across transports \
             (docs/SERVING.md).")
  in
  let make n density seed verbose domains json trace trace_format transport =
    validated
      [
        ( Option.fold ~none:false ~some:(fun d -> d < 1) domains,
          "--domains must be >= 1" );
      ]
    @@ fun () ->
    { n; density; seed; verbose; domains; json; trace; trace_format; transport }
  in
  Term.(
    ret
      (const make $ n_arg $ density_arg $ seed_arg $ verbose_arg
      $ domains_arg $ json_arg $ trace_arg $ trace_format_arg $ transport_arg))

let eps_arg =
  Arg.(
    value & opt float 0.25 & info [ "eps" ] ~docv:"EPS" ~doc:"Accuracy target.")

let zipf_arg =
  Arg.(
    value & flag
    & info [ "zipf" ] ~doc:"Use a Zipf-skewed workload instead of uniform.")

(* The wire behind every two-party run in this invocation. [None] keeps
   the default simulator; [Tcp] dials a fresh loopback connection per
   protocol run (the factory form is what multi-attempt drivers need). *)
let transport_factory c : Matprod_comm.Transport.factory option =
  match c.transport with
  | Sim -> None
  | Tcp -> Some (fun () -> Matprod_comm.Transport.tcp_loopback ())

let transport_conn c = Option.map (fun f -> f ()) (transport_factory c)

(* A choice whose value keeps its spelling, for banners and summaries. *)
let named_enum choices = Arg.enum (List.map (fun (s, v) -> (s, (s, v))) choices)

(* One grammar for every fault knob (lib/comm/chaos.mli). *)
let chaos_arg =
  let chaos =
    Arg.conv' ~docv:"SPEC"
      (Chaos.parse, fun ppf t -> Format.pp_print_string ppf (Chaos.to_string t))
  in
  Arg.(
    value
    & opt chaos []
    & info [ "chaos" ] ~docv:"SPEC" ~absent:"no faults"
        ~doc:
          "Fault-injection spec: clauses separated by ';', each a \
           comma-separated list of key=value pairs naming its $(b,kind) \
           first — e.g. \
           $(b,kind=crash,party=b,after=3;kind=drop,rate=0.1). Kinds: \
           drop, corrupt, truncate, duplicate, delay, crash, straggle, \
           byzantine; crash/straggle/byzantine take $(b,worker=RANK) in \
           fleet runs and crash takes $(b,permanent) \
           (docs/ROBUSTNESS.md).")

(* Arm a two-party run's wire with the spec's byte-level rules and
   crashes, if it has any. *)
let install_chaos ~seed spec ctx =
  match Chaos.to_fault ~seed:(seed + 77) spec with
  | Some fault -> Ctx.install_wire ctx ~fault ()
  | None -> ()

(* Per-link fault installation for fleet runs ([None] without a spec);
   the per-attempt policy lives in [Chaos.link_fault]. *)
let chaos_wire ~seed spec =
  if spec = [] then None
  else
    Some
      (fun ~rank ~replica ~attempt ctx ->
        Option.iter
          (fun fault -> Ctx.install_wire ctx ~fault ())
          (Chaos.link_fault ~seed spec ~rank ~replica ~attempt))

(* One two-party run over the chosen wire. *)
let run_ctx c ~seed body = Ctx.run ?transport:(transport_conn c) ~seed body

(* The same, journaled to [journal] when given. *)
let run_logged c ~seed ~journal ~protocol body =
  match journal with
  | Some path ->
      Ctx.run_journaled ?transport:(transport_conn c) ~seed ~journal:path
        ~protocol body
  | None -> run_ctx c ~seed body

(* Apply the domains/metrics/trace switches before any protocol work. *)
let start c =
  if c.transport <> Sim then
    (* Handler threads/pumps may write into sockets the peer already
       closed; surface that as EPIPE, not process death. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match c.domains with
  | Some d -> Matprod_util.Pool.set_size d
  | None -> ());
  if c.json || c.trace <> None then Obs.Metrics.set_enabled true;
  if c.trace <> None then Obs.Trace.enable ()

(* Emit the trace file and, in JSON mode, the run summary. [fields] come
   first so the subcommand's own parameters lead the object. *)
let finish c fields =
  (match c.trace with
  | Some path -> (
      let write =
        match c.trace_format with
        | Jsonl -> Obs.Trace.write_jsonl
        | Chrome -> Obs.Trace.write_chrome
      in
      try write path
      with Sys_error msg ->
        Printf.eprintf "matprod: cannot write trace file: %s\n" msg;
        exit 1)
  | None -> ());
  if c.json then Obs.Export.print_run_summary ~extra:fields ()

let base_fields ~subcommand c =
  [
    ("subcommand", Obs.Json.String subcommand);
    ("n", Obs.Json.Int c.n);
    ("density", Obs.Json.Float c.density);
    ("seed", Obs.Json.Int c.seed);
  ]

let transcript_fields (tr : Transcript.t) =
  [
    ("bits", Obs.Json.Int (Transcript.total_bits tr));
    ("bytes", Obs.Json.Int (Transcript.total_bytes tr));
    ("rounds", Obs.Json.Int (Transcript.rounds tr));
    ("messages", Obs.Json.Int (Transcript.message_count tr));
    ( "bytes_by_label",
      Obs.Json.Obj
        (List.map
           (fun (label, bytes) -> (label, Obs.Json.Int bytes))
           (Transcript.by_label tr)) );
  ]

let estimate_fields ~actual ~estimate =
  [
    ("exact", Obs.Json.Float actual);
    ("estimate", Obs.Json.Float estimate);
    ( "estimate_ratio",
      if actual = 0.0 then Obs.Json.Null
      else Obs.Json.Float (estimate /. actual) );
    ( "relative_error",
      if actual > 0.0 then
        Obs.Json.Float (Stats.relative_error ~actual ~estimate)
      else Obs.Json.Null );
  ]

let print_estimate ?(note = "") ~actual estimate =
  Printf.printf "exact answer      : %.6g\n" actual;
  Printf.printf "protocol estimate : %.6g%s\n" estimate note;
  if actual > 0.0 then
    Printf.printf "relative error    : %.4f\n"
      (Stats.relative_error ~actual ~estimate)

let report ~verbose ~actual ~estimate (run : _ Ctx.run) =
  print_estimate ~actual estimate;
  Printf.printf "communication     : %d bits (%d bytes)\n" run.Ctx.bits
    (run.Ctx.bits / 8);
  Printf.printf "rounds            : %d\n" run.Ctx.rounds;
  if verbose then
    Format.printf "transcript:@.%a@." Transcript.pp_summary run.Ctx.transcript

(* ------------------------------------------------------------------ *)
(* join-size: lp norms, p in [0,2] *)

type algo = Alg1 | Oneround | Cohen | Exact
type fallback = No_fallback | Trivial_fallback | L1_exact_fallback

let join_size c eps zipf p (algo_name, algo) load_a load_b journal resume
    max_attempts fallback chaos_spec =
  validated
    [
      ( Option.is_some load_a <> Option.is_some load_b,
        "--load-a and --load-b must be given together" );
      (max_attempts < 1, "--max-attempts must be >= 1");
      ( fallback = L1_exact_fallback && p <> 1.0,
        "--fallback l1-exact covers p = 1 only" );
    ]
  @@ fun () ->
  start c;
  let { n; density; verbose; _ } = c in
  (* Replay is sound only at the journal's own seed (it determines both the
     workload and every protocol coin), so a stored seed wins. *)
  let seed =
    match resume with
    | Some (_, j) when j.Journal.seed <> c.seed ->
        Printf.eprintf
          "matprod: resuming at journal seed %d (overriding --seed %d)\n%!"
          j.Journal.seed c.seed;
        j.Journal.seed
    | _ -> c.seed
  in
  let a, b =
    match (load_a, load_b) with
    | Some pa, Some pb ->
        (Matprod_matrix.Matio.read_bmat pa, Matprod_matrix.Matio.read_bmat pb)
    | _ -> Workload.gen_pair ~zipf ~seed ~n ~density
  in
  let c_mat = Product.bool_product a b in
  let actual = Product.lp_pow c_mat ~p in
  let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
  let l1_exact ctx = float_of_int (Matprod_core.L1_exact.run_bool ctx ~a ~b) in
  let driver ctx =
    match algo with
    | Alg1 ->
        Matprod_core.Lp_protocol.run ctx
          (Matprod_core.Lp_protocol.default_params ~p ~eps ())
          ~a:ai ~b:bi
    | Oneround ->
        Matprod_core.Lp_oneround.run ctx
          (Matprod_core.Lp_oneround.default_params ~p ~eps ())
          ~a:ai ~b:bi
    | Cohen ->
        if p <> 0.0 then failwith "cohen estimates p = 0 only";
        Matprod_core.Cohen_baseline.run ctx
          (Matprod_core.Cohen_baseline.params_for_eps ~eps)
          ~a ~b
    | Exact ->
        if p <> 1.0 then failwith "exact protocol covers p = 1 only (Remark 2)";
        l1_exact ctx
  in
  let install_faults = install_chaos ~seed chaos_spec in
  let fallbacks =
    match fallback with
    | No_fallback -> []
    | Trivial_fallback ->
        [
          ( "trivial",
            fun ctx ->
              Matprod_core.Trivial.run_bool ctx ~a ~b (fun c ->
                  Product.lp_pow c ~p) );
        ]
    | L1_exact_fallback -> [ ("l1-exact", l1_exact) ]
  in
  let supervised = max_attempts > 1 || fallback <> No_fallback in
  let workload =
    match load_a with
    | Some f -> "file " ^ f
    | None -> if zipf then "zipf" else "uniform"
  in
  let banner () =
    Printf.printf "workload: %s %dx%d binary, p = %g, ||C||_p^p exact below\n"
      workload (Bmat.rows a) (Bmat.cols b) p
  in
  let common_fields =
    base_fields ~subcommand:"join-size" { c with n = Bmat.rows a; seed }
    @ [
        ("eps", Obs.Json.Float eps);
        ("p", Obs.Json.Float p);
        ("algo", Obs.Json.String algo_name);
        ("workload", Obs.Json.String workload);
      ]
  in
  let fail_run e =
    Printf.eprintf "matprod: run failed: %s\n" (Outcome.error_to_string e);
    (match journal with
    | Some path ->
        Printf.eprintf
          "matprod: journal saved to %s — rerun with --resume %s to replay the \
           paid-for prefix\n"
          path path
    | None -> ());
    exit 1
  in
  match resume with
  | None when supervised -> (
      let policy =
        Supervisor.policy ~max_resumes:(max_attempts - 1) ~max_reseeds:1 ()
      in
      match
        Supervisor.run ~policy ?journal ?transport:(transport_factory c)
          ~wire:(fun ~attempt:_ ctx -> install_faults ctx)
          ~fallbacks ~seed ~protocol:algo_name driver
      with
      | Error e -> fail_run e
      | Ok r ->
          if not c.json then begin
            banner ();
            print_estimate ~actual r.Supervisor.output
              ~note:(if r.Supervisor.degraded then "  (degraded)" else "");
            Printf.printf
              "communication     : %d fresh bits over %d attempts (%d bits \
               replayed)\n"
              r.Supervisor.fresh_bits
              (List.length r.Supervisor.attempts)
              r.Supervisor.resume_bits_saved;
            Format.printf "%a@."
              (fun ppf -> Supervisor.pp_report ppf (Printf.sprintf "%.6g"))
              r
          end;
          finish c
            (common_fields
            @ [
                ("rung", Obs.Json.String (Supervisor.rung_to_string r.Supervisor.rung));
                ("degraded", Obs.Json.Bool r.Supervisor.degraded);
                ("attempts", Obs.Json.Int (List.length r.Supervisor.attempts));
                ("fresh_bits", Obs.Json.Int r.Supervisor.fresh_bits);
                ("fresh_rounds", Obs.Json.Int r.Supervisor.fresh_rounds);
                ("resume_bits_saved", Obs.Json.Int r.Supervisor.resume_bits_saved);
              ]
            @ estimate_fields ~actual ~estimate:r.Supervisor.output))
  | _ -> (
      let body ctx =
        install_faults ctx;
        driver ctx
      in
      match
        Outcome.guard (fun () ->
            match resume with
            | Some (path, j) ->
                (* Continue a crashed run: replay the journal, then touch
                   the wire. Passing [path] keeps appending, so another
                   crash resumes further. *)
                Ctx.resume ?transport:(transport_conn c) ~seed ~path
                  ~journal:j body
            | None -> run_logged c ~seed ~journal ~protocol:algo_name body)
      with
      | Error e -> fail_run e
      | Ok run ->
          let run_fields =
            match (resume, journal) with
            | Some (path, _), _ ->
                [
                  ("resumed_from", Obs.Json.String path);
                  ("replayed_messages", Obs.Json.Int run.Ctx.replayed_messages);
                  ("replayed_bits", Obs.Json.Int run.Ctx.replayed_bits);
                ]
            | None, Some path -> [ ("journal", Obs.Json.String path) ]
            | None, None -> []
          in
          if not c.json then begin
            (match resume with
            | Some (path, _) ->
                Printf.printf
                  "resumed from %s: %d messages (%d bits) replayed for free\n"
                  path run.Ctx.replayed_messages run.Ctx.replayed_bits
            | None -> ());
            banner ();
            report ~verbose ~actual ~estimate:run.Ctx.output run
          end;
          finish c
            (common_fields @ run_fields
            @ estimate_fields ~actual ~estimate:run.Ctx.output
            @ transcript_fields run.Ctx.transcript))

let load_a_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load-a" ] ~docv:"FILE"
        ~doc:"Read Alice's matrix from FILE (matprod or MatrixMarket format) \
              instead of generating a workload.")

let load_b_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load-b" ] ~docv:"FILE" ~doc:"Read Bob's matrix from FILE.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead log of the transcript to $(docv); after a crash, \
           --resume $(docv) replays the delivered prefix for zero fresh \
           bits (docs/ROBUSTNESS.md).")

let resume_arg =
  let journal_file =
    Arg.conv' ~docv:"FILE"
      ( (fun path ->
          match Journal.load path with
          | Ok j -> Ok (path, j)
          | Error e ->
              Error (Printf.sprintf "cannot resume from %s: %s" path e)),
        fun ppf (path, _) -> Format.pp_print_string ppf path )
  in
  Arg.(
    value
    & opt (some journal_file) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume a crashed run from its journal: replay $(docv) \
           byte-for-byte, then continue on the wire. The journal's seed \
           overrides --seed.")

let max_attempts_arg =
  Arg.(
    value & opt int 1
    & info [ "max-attempts" ] ~docv:"N"
        ~doc:
          "Supervise the run: on failure, resume from the journal up to \
           N-1 times (then reseed once) before giving up.")

let fallback_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("none", No_fallback); ("trivial", Trivial_fallback);
             ("l1-exact", L1_exact_fallback) ])
        No_fallback
    & info [ "fallback" ] ~docv:"PROTO"
        ~doc:
          "Degrade to $(docv) (trivial | l1-exact) when every retry \
           fails; the report marks the answer as degraded.")

let join_size_cmd =
  let p_arg =
    Arg.(
      value & opt float 0.0
      & info [ "p" ] ~docv:"P" ~doc:"Norm order in [0,2]; 0 = join size.")
  in
  let algo_arg =
    Arg.(
      value
      & opt
          (named_enum
             [ ("alg1", Alg1); ("oneround", Oneround); ("cohen", Cohen);
               ("exact", Exact) ])
          ("alg1", Alg1)
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"One of alg1 (Algorithm 1), oneround ([16]), cohen ([12]), exact (Remark 2, p=1).")
  in
  Cmd.v
    (Cmd.info "join-size"
       ~doc:"Estimate ||AB||_p^p (set-intersection / natural join size).")
    Term.(
      ret
        (const join_size $ common_term $ eps_arg $ zipf_arg $ p_arg $ algo_arg
       $ load_a_arg $ load_b_arg $ journal_arg $ resume_arg $ max_attempts_arg
       $ fallback_arg $ chaos_arg))

(* ------------------------------------------------------------------ *)
(* linf *)

let linf c overlap eps kappa general =
  start c;
  let { n; density; seed; verbose; _ } = c in
  let rng = Prng.create seed in
  let banner, algo, actual, run =
    if general then
      let a = Workload.uniform_int rng ~rows:n ~cols:n ~density ~max_value:8 in
      let b = Workload.uniform_int rng ~rows:n ~cols:n ~density ~max_value:8 in
      let kappa = Option.value ~default:4.0 kappa in
      ( Printf.sprintf "integer matrices, kappa = %.1f (Theorem 4.8)" kappa,
        "general",
        Product.linf (Product.int_product a b),
        run_ctx c ~seed (fun ctx ->
            Matprod_core.Linf_general.run ctx
              { Matprod_core.Linf_general.kappa }
              ~a ~b) )
    else
      let a, b, (i, j) = Workload.planted_pair rng ~n ~density ~overlap in
      let actual = Product.linf (Product.bool_product a b) in
      match kappa with
      | Some kappa ->
          ( Printf.sprintf
              "binary planted pair at (%d,%d), kappa = %.1f (Algorithm 3)" i j
              kappa,
            "kappa",
            actual,
            run_ctx c ~seed (fun ctx ->
                (Matprod_core.Linf_kappa.run ctx
                   (Matprod_core.Linf_kappa.default_params ~kappa)
                   ~a ~b)
                  .Matprod_core.Linf_kappa.estimate) )
      | None ->
          ( Printf.sprintf
              "binary planted pair at (%d,%d), (2+%.2f)-approx (Algorithm 2)" i
              j eps,
            "binary",
            actual,
            run_ctx c ~seed (fun ctx ->
                (Matprod_core.Linf_binary.run ctx
                   (Matprod_core.Linf_binary.default_params ~eps)
                   ~a ~b)
                  .Matprod_core.Linf_binary.estimate) )
  in
  let actual = float_of_int actual and estimate = run.Ctx.output in
  if not c.json then begin
    Printf.printf "%s\n" banner;
    report ~verbose ~actual ~estimate run
  end;
  finish c
    (base_fields ~subcommand:"linf" c
    @ [
        ("eps", Obs.Json.Float eps);
        ("algo", Obs.Json.String algo);
        ( "kappa",
          match kappa with
          | Some k -> Obs.Json.Float k
          | None -> Obs.Json.Null );
      ]
    @ estimate_fields ~actual ~estimate
    @ transcript_fields run.Ctx.transcript)

let linf_cmd =
  let overlap_arg =
    Arg.(
      value & opt int 80
      & info [ "overlap" ] ~docv:"K" ~doc:"Planted max-pair intersection size.")
  in
  let kappa_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "kappa" ] ~docv:"KAPPA"
          ~doc:"Use the kappa-approximation protocol instead of (2+eps).")
  in
  let general_arg =
    Arg.(
      value & flag
      & info [ "general" ] ~doc:"Integer matrices (Theorem 4.8 sketching).")
  in
  Cmd.v
    (Cmd.info "linf" ~doc:"Approximate ||AB||_inf (maximum intersection size).")
    Term.(
      const linf $ common_term $ overlap_arg $ eps_arg $ kappa_arg
      $ general_arg)

(* ------------------------------------------------------------------ *)
(* heavy-hitters *)

let heavy_hitters c phi eps binary =
  validated [ (phi <= 0.0 || eps <= 0.0 || eps > phi, "need 0 < eps <= phi") ]
  @@ fun () ->
  start c;
  let { n; density; seed; verbose; _ } = c in
  let rng = Prng.create seed in
  let banner, c_mat, run =
    if binary then
      let overlap = max 40 (n / 3) in
      let a, b =
        Workload.planted_heavy_hitters rng ~n ~density ~heavy:[ (2, overlap) ]
      in
      ( Printf.sprintf "binary matrices, planted overlaps %d (Theorem 5.3)"
          overlap,
        Product.bool_product a b,
        run_ctx c ~seed (fun ctx ->
            Matprod_core.Hh_binary.run ctx
              (Matprod_core.Hh_binary.default_params ~phi ~eps ())
              ~a ~b) )
    else
      let a, b, _ =
        Workload.planted_heavy_int rng ~n ~density ~max_value:8
          ~heavy:[ (2, 50, 25) ]
      in
      ( "integer matrices, planted heavy entries (Algorithm 4)",
        Product.int_product a b,
        run_ctx c ~seed (fun ctx ->
            Matprod_core.Hh_general.run ctx
              (Matprod_core.Hh_general.default_params ~phi ~eps ())
              ~a ~b) )
  in
  let set = run.Ctx.output in
  let must = Product.heavy_hitters c_mat ~p:1.0 ~phi in
  let may = Product.heavy_hitters c_mat ~p:1.0 ~phi:(phi -. eps) in
  let recall = List.for_all (fun e -> List.mem e set) must in
  let precision = List.for_all (fun e -> List.mem e may) set in
  if not c.json then begin
    Printf.printf "%s\n" banner;
    Printf.printf "exact HH_phi      : %d entries\n" (List.length must);
    Printf.printf "allowed superset  : %d entries (HH_{phi-eps})\n"
      (List.length may);
    Printf.printf "protocol output S : %d entries\n" (List.length set);
    List.iter
      (fun (i, j) ->
        Printf.printf "  (%d, %d) C=%d%s\n" i j (Product.get c_mat i j)
          (if List.mem (i, j) must then "  [required]"
           else if List.mem (i, j) may then "  [allowed]"
           else "  [VIOLATION]"))
      set;
    Printf.printf "band check        : recall %s, precision %s\n"
      (if recall then "ok" else "VIOLATED")
      (if precision then "ok" else "VIOLATED");
    Printf.printf "communication     : %d bits\n" run.Ctx.bits;
    Printf.printf "rounds            : %d\n" run.Ctx.rounds;
    if verbose then
      Format.printf "transcript:@.%a@." Transcript.pp_summary run.Ctx.transcript
  end;
  finish c
    (base_fields ~subcommand:"heavy-hitters" c
    @ [
        ("phi", Obs.Json.Float phi);
        ("eps", Obs.Json.Float eps);
        ("algo", Obs.Json.String (if binary then "binary" else "general"));
        ("exact_hh", Obs.Json.Int (List.length must));
        ("allowed_superset", Obs.Json.Int (List.length may));
        ("output_size", Obs.Json.Int (List.length set));
        ( "output",
          Obs.Json.List
            (List.map
               (fun (i, j) -> Obs.Json.List [ Obs.Json.Int i; Obs.Json.Int j ])
               set) );
        ("recall_ok", Obs.Json.Bool recall);
        ("precision_ok", Obs.Json.Bool precision);
      ]
    @ transcript_fields run.Ctx.transcript)

let heavy_hitters_cmd =
  let phi_arg =
    Arg.(value & opt float 0.05 & info [ "phi" ] ~docv:"PHI" ~doc:"Heaviness threshold.")
  in
  let hh_eps_arg =
    Arg.(value & opt float 0.02 & info [ "eps" ] ~docv:"EPS" ~doc:"Band width.")
  in
  let binary_arg =
    Arg.(value & flag & info [ "binary" ] ~doc:"Binary matrices (Theorem 5.3 protocol).")
  in
  Cmd.v
    (Cmd.info "heavy-hitters"
       ~doc:"Find the lp-(phi,eps)-heavy-hitters of AB.")
    Term.(
      ret (const heavy_hitters $ common_term $ phi_arg $ hh_eps_arg $ binary_arg))

(* ------------------------------------------------------------------ *)
(* sample *)

type sample_kind = L0 | L1

let sample c (kind_name, kind) count =
  start c;
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let c_mat = Product.bool_product a b in
  let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
  if not c.json then
    Printf.printf
      "sampling %d %s-samples from a product with ||C||_0 = %d, ||C||_1 = %d\n"
      count kind_name (Product.nnz c_mat) (Product.l1 c_mat);
  (* One draw: its bits, and the sampled (row, col, detail) or why none. *)
  let draw seed =
    match kind with
    | L1 -> (
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.L1_sampling.run ctx ~a:ai ~b:bi)
        in
        ( r.Ctx.bits,
          match r.Ctx.output with
          | Some { Matprod_core.L1_sampling.row; col; witness } ->
              Ok
                ( row,
                  col,
                  Printf.sprintf "via witness %d   [C entry = %d]" witness
                    (Product.get c_mat row col) )
          | None -> Error "(product empty)" ))
    | L0 -> (
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.L0_sampling.run ctx
                (Matprod_core.L0_sampling.default_params ~eps:0.25)
                ~a:ai ~b:bi)
        in
        ( r.Ctx.bits,
          match r.Ctx.output with
          | Some { Matprod_core.L0_sampling.row; col; value } ->
              Ok (row, col, Printf.sprintf "with value %d" value)
          | None -> Error "(sampler failed this run)" ))
  in
  let total_bits = ref 0 in
  let drawn = ref [] in
  for t = 1 to count do
    let bits, sample = draw (seed + t) in
    total_bits := !total_bits + bits;
    match sample with
    | Ok (row, col, detail) ->
        drawn := Obs.Json.List [ Obs.Json.Int row; Obs.Json.Int col ] :: !drawn;
        if not c.json then Printf.printf "  (%d, %d) %s\n" row col detail
    | Error why -> if not c.json then Printf.printf "  %s\n" why
  done;
  if not c.json then
    Printf.printf "total communication: %d bits (%d per sample)\n" !total_bits
      (!total_bits / max 1 count);
  finish c
    (base_fields ~subcommand:"sample" c
    @ [
        ("kind", Obs.Json.String kind_name);
        ("count", Obs.Json.Int count);
        ("samples", Obs.Json.List (List.rev !drawn));
        ("bits", Obs.Json.Int !total_bits);
        ("bits_per_sample", Obs.Json.Int (!total_bits / max 1 count));
      ])

let sample_cmd =
  let kind_arg =
    Arg.(
      value
      & opt (named_enum [ ("l0", L0); ("l1", L1) ]) ("l0", L0)
      & info [ "kind" ] ~docv:"KIND" ~doc:"l0 or l1.")
  in
  let count_arg =
    Arg.(value & opt int 5 & info [ "count" ] ~docv:"COUNT" ~doc:"Number of samples.")
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Draw l0- or l1-samples from the product AB.")
    Term.(const sample $ common_term $ kind_arg $ count_arg)

(* ------------------------------------------------------------------ *)
(* lowerbound *)

type lowerbound_kind = Disj | Gap | Sum

let lowerbound c (kind_name, kind) =
  start c;
  let { n; seed; _ } = c in
  let rng = Prng.create seed in
  let say fmt =
    Printf.ksprintf (fun s -> if not c.json then print_string s) fmt
  in
  let fields =
    match kind with
    | Disj ->
        let half = n / 2 in
        let a0, b0 =
          Matprod_lowerbounds.Disj_reduction.instance rng ~half
            ~intersecting:false ~density:0.3
        in
        let a1, b1 =
          Matprod_lowerbounds.Disj_reduction.instance rng ~half
            ~intersecting:true ~density:0.3
        in
        let disjoint = Product.linf (Product.bool_product a0 b0) in
        let intersecting = Product.linf (Product.bool_product a1 b1) in
        say "Theorem 4.4 DISJ embedding (n = %d):\n" (2 * half);
        say "  disjoint strings     -> ||AB||_inf = %d\n" disjoint;
        say "  intersecting strings -> ||AB||_inf = %d\n" intersecting;
        [
          ("linf_disjoint", Obs.Json.Int disjoint);
          ("linf_intersecting", Obs.Json.Int intersecting);
        ]
    | Gap ->
        let half = n / 2 and kappa = 16 in
        let a0, b0 =
          Matprod_lowerbounds.Gap_linf_reduction.instance rng ~half ~kappa
            ~gap:false
        in
        let a1, b1 =
          Matprod_lowerbounds.Gap_linf_reduction.instance rng ~half ~kappa
            ~gap:true
        in
        let no_gap = Product.linf (Product.int_product a0 b0) in
        let gap = Product.linf (Product.int_product a1 b1) in
        say "Theorem 4.8 Gap-linf embedding (n = %d, kappa = %d):\n" (2 * half)
          kappa;
        say "  no gap -> ||AB||_inf = %d\n" no_gap;
        say "  gap    -> ||AB||_inf = %d\n" gap;
        [
          ("kappa", Obs.Json.Int kappa);
          ("linf_no_gap", Obs.Json.Int no_gap);
          ("linf_gap", Obs.Json.Int gap);
        ]
    | Sum ->
        let inst =
          Matprod_lowerbounds.Sum_hard.sample ~beta_const:2.0 rng ~n ~kappa:2.0
        in
        let c_mat =
          Product.bool_product inst.Matprod_lowerbounds.Sum_hard.a
            inst.Matprod_lowerbounds.Sum_hard.b
        in
        let diag = ref 0 in
        for i = 0 to n - 1 do
          diag := max !diag (Product.get c_mat i i)
        done;
        let linf = Product.linf c_mat in
        say
          "Theorem 4.5 SUM instance (n = %d, k = %d, replicas = %d): SUM = %d\n"
          n inst.Matprod_lowerbounds.Sum_hard.k
          inst.Matprod_lowerbounds.Sum_hard.replicas
          inst.Matprod_lowerbounds.Sum_hard.sum_value;
        say "  ||AB||_inf = %d, diagonal max = %d\n" linf !diag;
        [
          ("sum", Obs.Json.Int inst.Matprod_lowerbounds.Sum_hard.sum_value);
          ("linf", Obs.Json.Int linf);
          ("diagonal_max", Obs.Json.Int !diag);
        ]
  in
  finish c
    (base_fields ~subcommand:"lowerbound" c
    @ (("kind", Obs.Json.String kind_name) :: fields))

let lowerbound_cmd =
  let kind_arg =
    Arg.(
      value
      & opt
          (named_enum [ ("disj", Disj); ("gap", Gap); ("sum", Sum) ])
          ("disj", Disj)
      & info [ "kind" ] ~docv:"KIND" ~doc:"disj, gap or sum.")
  in
  Cmd.v
    (Cmd.info "lowerbound"
       ~doc:"Generate and inspect the paper's lower-bound hard instances.")
    Term.(const lowerbound $ common_term $ kind_arg)

(* ------------------------------------------------------------------ *)
(* joins ([16] family) *)

type join_kind = Equality | Disjointness | Atleast

let joins c (kind_name, kind) t =
  start c;
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let c_mat = Product.bool_product a b in
  let actual, estimate, tr =
    match kind with
    | Equality ->
        let bt = Bmat.transpose b in
        let exact = ref 0 in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if Bmat.row a i = Bmat.row bt j then incr exact
          done
        done;
        let r =
          run_ctx c ~seed (fun ctx -> Matprod_core.Joins.equality_join ctx ~a ~b)
        in
        if not c.json then
          Printf.printf
            "set-equality join: %d pairs (exact %d), %d bits, %d round\n"
            r.Ctx.output !exact r.Ctx.bits r.Ctx.rounds;
        (float_of_int !exact, float_of_int r.Ctx.output, r.Ctx.transcript)
    | Disjointness ->
        let actual = (n * n) - Product.nnz c_mat in
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.Joins.disjointness_join ctx ~eps:0.25 ~a ~b)
        in
        if not c.json then
          Printf.printf
            "set-disjointness join: ~%.0f pairs (exact %d), %d bits, %d rounds\n"
            r.Ctx.output actual r.Ctx.bits r.Ctx.rounds;
        (float_of_int actual, r.Ctx.output, r.Ctx.transcript)
    | Atleast ->
        let actual =
          Array.fold_left
            (fun acc (_, _, v) -> if v >= t then acc + 1 else acc)
            0 (Product.entries c_mat)
        in
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.Joins.at_least_t_join ctx
                (Matprod_core.Joins.default_threshold_params ~eps:0.25)
                ~t ~a ~b)
        in
        if not c.json then
          Printf.printf
            "at-least-%d join: ~%.0f pairs (exact %d), %d bits, %d rounds\n" t
            r.Ctx.output actual r.Ctx.bits r.Ctx.rounds;
        (float_of_int actual, r.Ctx.output, r.Ctx.transcript)
  in
  finish c
    (base_fields ~subcommand:"joins" c
    @ [
        ("kind", Obs.Json.String kind_name);
        ("threshold", Obs.Json.Int t);
      ]
    @ estimate_fields ~actual ~estimate
    @ transcript_fields tr)

let joins_cmd =
  let kind_arg =
    Arg.(
      value
      & opt
          (named_enum
             [ ("equality", Equality); ("disjointness", Disjointness);
               ("atleast", Atleast) ])
          ("equality", Equality)
      & info [ "kind" ] ~docv:"KIND" ~doc:"equality, disjointness or atleast.")
  in
  let t_arg =
    Arg.(
      value & opt int 2
      & info [ "t" ] ~docv:"T" ~doc:"Threshold for the at-least-T join.")
  in
  Cmd.v
    (Cmd.info "joins"
       ~doc:"The predecessor join family of [16]: set-equality, \
             set-disjointness and at-least-T joins.")
    Term.(const joins $ common_term $ kind_arg $ t_arg)

(* ------------------------------------------------------------------ *)
(* session *)

let session c beta =
  start c;
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let c_mat = Product.bool_product a b in
  (* Establish, the free queries and refine share one context. *)
  let run =
    run_ctx c ~seed (fun ctx ->
        let s =
          Matprod_core.Session.establish ctx ~beta ~a:(Imat.of_bmat a)
            ~b:(Imat.of_bmat b)
        in
        let establish_bits = Transcript.total_bits (Ctx.transcript ctx) in
        let coarse = Matprod_core.Session.norm_pow s in
        let top = Matprod_core.Session.top_rows s ~k:5 in
        if not c.json then begin
          Printf.printf "session established: beta = %.2f, %d bits\n" beta
            establish_bits;
          Printf.printf "||C||_0 (coarse)   : %.0f (exact %d) — free\n" coarse
            (Product.nnz c_mat);
          Printf.printf "top rows by support — free:\n";
          List.iter
            (fun (i, est) ->
              let exact = (Product.row_lp_pow c_mat ~p:0.0).(i) in
              Printf.printf "  row %3d: ~%.0f (exact %.0f)\n" i est exact)
            top
        end;
        let refined = Matprod_core.Session.refine ctx s in
        if not c.json then
          Printf.printf "||C||_0 (refined)  : %.0f — %d extra bits\n" refined
            (Transcript.total_bits (Ctx.transcript ctx) - establish_bits);
        (establish_bits, coarse, top, refined))
  in
  let establish_bits, coarse, top, refined = run.Ctx.output in
  finish c
    (base_fields ~subcommand:"session" c
    @ [
        ("beta", Obs.Json.Float beta);
        ("establish_bits", Obs.Json.Int establish_bits);
        ("coarse_estimate", Obs.Json.Float coarse);
        ("refined_estimate", Obs.Json.Float refined);
        ("exact_l0", Obs.Json.Int (Product.nnz c_mat));
        ( "top_rows",
          Obs.Json.List
            (List.map
               (fun (i, est) ->
                 Obs.Json.List [ Obs.Json.Int i; Obs.Json.Float est ])
               top) );
      ]
    @ transcript_fields run.Ctx.transcript)

let session_cmd =
  let beta_arg =
    Arg.(
      value & opt float 0.3
      & info [ "beta" ] ~docv:"BETA" ~doc:"Accuracy of the cached sketches.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Establish an amortised query session and answer several \
             questions from one sketch exchange.")
    Term.(const session $ common_term $ beta_arg)

(* ------------------------------------------------------------------ *)
(* Fleet plumbing shared by estimate and batch *)

type fleet = {
  workers : int;
  quorum : int option;
  replicas : int;
  verify : bool;
}

let fleet_term =
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"K"
          ~doc:"Shard the rows of A across $(docv) workers, each running \
                the protocol (or the whole batch) with a coordinator over \
                its own link, and merge the shard answers. 1 (the default) \
                keeps the plain two-party run.")
  in
  let quorum_arg =
    Arg.(
      value & opt (some int) None
      & info [ "quorum" ] ~docv:"Q"
          ~doc:"Minimum surviving links for an answer; fewer survivors \
                fail the query, between $(docv) and the fleet size the \
                answer is flagged degraded. Defaults to all workers.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 1
      & info [ "replicas" ] ~docv:"R"
          ~doc:"Run every shard on $(docv) replica links and reconcile by \
                voting (family-aware across derived seeds for an estimator, \
                exact agreement at the fleet seed for a batch): a replica \
                that disagrees with the majority is quarantined and the \
                shard answer is re-merged from the survivors.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Run the coordinator-side answer validators on every \
                decoded shard answer (exact mass identity, range checks, \
                per-coordinate adjudication, Freivalds) and quarantine \
                violators.")
  in
  let make workers quorum replicas verify =
    validated
      [
        (workers < 1, "--workers must be >= 1");
        (replicas < 1 || replicas > 16, "--replicas must be in [1, 16]");
        ( Option.fold ~none:false ~some:(fun q -> q < 1 || q > workers) quorum,
          "--quorum must be in [1, --workers]" );
      ]
    @@ fun () -> { workers; quorum; replicas; verify }
  in
  Term.(ret (const make $ workers_arg $ quorum_arg $ replicas_arg $ verify_arg))

let fleet_config c f ?link_policy ?journal () =
  Fleet.config ?quorum:f.quorum ~replicas:f.replicas ~verify:f.verify
    ?link_policy ?journal ?transport:(transport_factory c) ~workers:f.workers
    ~seed:c.seed ()

let fleet_failed ~what (cfg : Fleet.config) e =
  Printf.eprintf "matprod: %s failed (quorum %d/%d unmet): %s\n" what
    cfg.Fleet.quorum cfg.Fleet.workers (Outcome.error_to_string e);
  exit 1

let fleet_config_fields (cfg : Fleet.config) =
  [
    ("workers", Obs.Json.Int cfg.Fleet.workers);
    ("quorum", Obs.Json.Int cfg.Fleet.quorum);
    ("replicas", Obs.Json.Int cfg.Fleet.replicas);
    ("verify", Obs.Json.Bool cfg.Fleet.verify);
  ]

(* How a fleet link ended: "ok", the invariant a quarantined replica
   violated, or "lost". *)
let link_verdict = function
  | Ok _ -> "ok"
  | Error (Outcome.Byzantine_detected { check; _ }) -> check
  | Error _ -> "lost"

(* One fleet link's line in the human report; [ok] renders an answer. *)
let print_link ~rank ~replica range answer ok =
  let label =
    if replica = 0 then Printf.sprintf "worker %d" rank
    else Printf.sprintf "worker %d.r%d" rank replica
  in
  match answer with
  | Ok v ->
      Format.printf "  %s %a: %t@." label Shard.pp_range range (fun ppf ->
          ok ppf v)
  | Error (Outcome.Byzantine_detected { check; _ }) ->
      Format.printf "  %s %a: QUARANTINED — violated %s@." label
        Shard.pp_range range check
  | Error e ->
      Format.printf "  %s %a: LOST — %s@." label Shard.pp_range range
        (Outcome.error_to_string e)

let suspect_fields (s : Fleet.suspect) =
  Obs.Json.Obj
    [
      ("rank", Obs.Json.Int s.Fleet.s_rank);
      ("replica", Obs.Json.Int s.Fleet.s_replica);
      ("check", Obs.Json.String s.Fleet.s_check);
      ("detail", Obs.Json.String s.Fleet.s_detail);
    ]

let print_suspects suspects =
  if suspects <> [] then begin
    Printf.printf "suspects quarantined:\n";
    List.iter
      (fun (s : Fleet.suspect) ->
        Printf.printf "  worker %d replica %d: %s — %s\n" s.Fleet.s_rank
          s.Fleet.s_replica s.Fleet.s_check s.Fleet.s_detail)
      suspects
  end

(* ------------------------------------------------------------------ *)
(* estimate: any registered estimator by name *)

let estimate_fleet c (e : Estimator.t) ~a ~b fleet ~chaos_spec ~deadline
    ~fleet_journal =
  let link_policy =
    { Fleet.default_link_policy with Fleet.deadline_s = deadline }
  in
  let cfg = fleet_config c fleet ~link_policy ?journal:fleet_journal () in
  let wire = chaos_wire ~seed:c.seed chaos_spec in
  match Fleet.run ?wire cfg e ~a ~b with
  | Error e -> fleet_failed ~what:"fleet" cfg e
  | Ok rep ->
      if not c.json then begin
        Printf.printf "%s over %d workers (quorum %d) — %s\n" e.name
          cfg.Fleet.workers cfg.Fleet.quorum e.describe;
        List.iter
          (fun (l : Fleet.link_report) ->
            let rungs =
              String.concat "→"
                (List.map
                   (fun (at : Supervisor.attempt) ->
                     Supervisor.rung_to_string at.Supervisor.rung)
                   l.Fleet.attempts)
            in
            print_link ~rank:l.Fleet.rank ~replica:l.Fleet.replica
              l.Fleet.range l.Fleet.answer (fun ppf v ->
                Format.fprintf ppf "%a  (%d bits%s%s)" Estimator.pp_answer
                  v l.Fleet.fresh_bits
                  (if rungs = "" then "" else ", " ^ rungs)
                  (if l.Fleet.straggled then ", straggled" else "")))
          rep.Fleet.links;
        print_suspects rep.Fleet.suspects;
        Format.printf "merged answer     : %a@."
          (Outcome.pp_graded Estimator.pp_answer)
          rep.Fleet.answer;
        Printf.printf "communication     : %d fresh bits across links\n"
          rep.Fleet.fresh_bits;
        if rep.Fleet.resume_bits_saved > 0 then
          Printf.printf "resume savings    : %d bits replayed from journals\n"
            rep.Fleet.resume_bits_saved
      end;
      finish c
        (base_fields ~subcommand:"estimate" c
        @ [
            ("estimator", Obs.Json.String e.name);
            ( "answer",
              Obs.Json.String
                (Format.asprintf "%a" Estimator.pp_answer
                   (Outcome.graded_value rep.Fleet.answer)) );
          ]
        @ fleet_config_fields cfg
        @ [
            ("survivors", Obs.Json.Int rep.Fleet.survivors);
            ("coverage", Obs.Json.Float rep.Fleet.coverage);
            ("degraded", Obs.Json.Bool (Outcome.is_degraded rep.Fleet.answer));
            ("fleet_bits", Obs.Json.Int rep.Fleet.fresh_bits);
            ("fleet_rounds", Obs.Json.Int rep.Fleet.fresh_rounds);
            ("resume_bits_saved", Obs.Json.Int rep.Fleet.resume_bits_saved);
            ( "suspects",
              Obs.Json.List (List.map suspect_fields rep.Fleet.suspects) );
            ( "links",
              Obs.Json.List
                (List.map
                   (fun (l : Fleet.link_report) ->
                     Obs.Json.Obj
                       [
                         ("rank", Obs.Json.Int l.Fleet.rank);
                         ("replica", Obs.Json.Int l.Fleet.replica);
                         ("rows", Obs.Json.Int l.Fleet.range.Shard.length);
                         ("bits", Obs.Json.Int l.Fleet.fresh_bits);
                         ( "attempts",
                           Obs.Json.Int (List.length l.Fleet.attempts) );
                         ("straggled", Obs.Json.Bool l.Fleet.straggled);
                         ( "answered",
                           Obs.Json.Bool (Result.is_ok l.Fleet.answer) );
                         ( "verdict",
                           Obs.Json.String (link_verdict l.Fleet.answer) );
                       ])
                   rep.Fleet.links) );
          ])

let estimate c (e : Estimator.t) list_all fleet deadline fleet_journal
    chaos_spec =
  start c;
  let { n; density; seed; verbose; _ } = c in
  if list_all then
    List.iter
      (fun (e : Estimator.t) ->
        let cost = e.cost ~n in
        Printf.printf "%-22s ~%-10.0f bits  %d rounds   %s\n" e.name
          cost.Estimator.bits cost.Estimator.rounds e.describe)
      Registry.all
  else
    let a, b = Workload.gen_pair ~zipf:false ~seed ~n ~density in
    if fleet.workers > 1 then
      estimate_fleet c e ~a ~b fleet ~chaos_spec ~deadline ~fleet_journal
    else
      let predicted = e.cost ~n in
      let run =
        run_ctx c ~seed (fun ctx ->
            install_chaos ~seed chaos_spec ctx;
            Outcome.capture ctx (fun () -> e.run ctx ~a ~b))
      in
      match run.Ctx.output with
      | Error e ->
          Printf.eprintf "matprod: estimator failed: %s\n"
            (Outcome.error_to_string e);
          exit 1
      | Ok (answer, _diag) ->
          if not c.json then begin
            Printf.printf "%s — %s\n" e.name e.describe;
            Format.printf "answer            : %a@." Estimator.pp_answer
              answer;
            Printf.printf "communication     : %d bits (predicted ~%.0f)\n"
              run.Ctx.bits predicted.Estimator.bits;
            Printf.printf "rounds            : %d (predicted %d)\n"
              run.Ctx.rounds predicted.Estimator.rounds;
            if verbose then
              Format.printf "transcript:@.%a@." Transcript.pp_summary
                run.Ctx.transcript
          end;
          finish c
            (base_fields ~subcommand:"estimate" c
            @ [
                ("estimator", Obs.Json.String e.name);
                ( "answer",
                  Obs.Json.String
                    (Format.asprintf "%a" Estimator.pp_answer answer) );
                ("predicted_bits", Obs.Json.Float predicted.Estimator.bits);
                ("predicted_rounds", Obs.Json.Int predicted.Estimator.rounds);
              ]
            @ transcript_fields run.Ctx.transcript)

let estimate_cmd =
  let estimator =
    Arg.conv' ~docv:"ESTIMATOR"
      ( (fun name ->
          match Registry.find name with
          | Some e -> Ok e
          | None ->
              Error
                (Printf.sprintf
                   "unknown estimator %S — try --list for the registry" name)),
        fun ppf (e : Estimator.t) -> Format.pp_print_string ppf e.name )
  in
  let name_arg =
    Arg.(
      value
      & pos 0 estimator (Option.get (Registry.find "lp p=0"))
      & info [] ~docv:"ESTIMATOR"
          ~doc:"Registry name of the estimator to run (see --list).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List every registered estimator with its predicted cost at \
                the given -n, then exit.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-worker straggler deadline on simulated waiting; a link \
                that answers late is failed and sent up the supervisor \
                ladder.")
  in
  let fleet_journal_arg =
    Arg.(
      value & opt (some string) None
      & info [ "fleet-journal" ] ~docv:"PATH"
          ~doc:"Base path for per-link write-ahead journals \
                ($(docv).worker<i>), enabling the Resume rung per link.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Run any estimator from the registry by name with its default \
             query (the uniform interface behind every subcommand) — \
             two-party by default, or sharded across a coordinator + \
             $(b,--workers) fleet with per-link chaos, straggler \
             deadlines, and quorum-degraded answers.")
    Term.(
      const estimate $ common_term $ name_arg $ list_arg $ fleet_term
      $ deadline_arg $ fleet_journal_arg $ chaos_arg)

(* ------------------------------------------------------------------ *)
(* batch: the plan-cached query engine *)

let plan_status_string = function
  | Engine.Plan_hit -> "plan hit"
  | Engine.Plan_miss -> "plan miss"
  | Engine.Not_planned -> "unplanned"

let samples_summary kind samples =
  Printf.sprintf "%d %s-samples (%d drawn)" (Array.length samples) kind
    (Array.fold_left (fun acc s -> if s = None then acc else acc + 1) 0 samples)

let answer_summary = function
  | Engine.Scalar v -> Printf.sprintf "%.6g" v
  | Engine.Vector v ->
      Printf.sprintf "%d row estimates (max %.6g)" (Array.length v)
        (Array.fold_left Float.max 0.0 v)
  | Engine.Ranked rows ->
      String.concat ", "
        (List.map (fun (i, est) -> Printf.sprintf "row %d ~%.0f" i est) rows)
  | Engine.Entry_set coords -> Printf.sprintf "%d entries" (List.length coords)
  | Engine.L0_samples samples -> samples_summary "l0" samples
  | Engine.L1_samples samples -> samples_summary "l1" samples
  | Engine.Shares (alice, bob) ->
      Printf.sprintf "additive shares (%d + %d entries)" (List.length alice)
        (List.length bob)
  | Engine.Leveled _ as answer -> Format.asprintf "%a" Estimator.pp_answer answer

let batch_fleet c queries ~a ~b fleet ~chaos_spec =
  let cfg = fleet_config c fleet () in
  let engine = Engine.create () in
  let wire = chaos_wire ~seed:c.seed chaos_spec in
  match Fleet.run_batch ?wire cfg engine queries ~a ~b with
  | Error e -> fleet_failed ~what:"batch fleet" cfg e
  | Ok rep ->
      let answers = Outcome.graded_value rep.Fleet.batch_answers in
      if not c.json then begin
        Printf.printf "batch of %d queries over %d workers (quorum %d)\n"
          (List.length queries) cfg.Fleet.workers cfg.Fleet.quorum;
        List.iter
          (fun (l : Fleet.batch_link) ->
            print_link ~rank:l.Fleet.b_rank ~replica:l.Fleet.b_replica
              l.Fleet.b_range l.Fleet.b_answers (fun ppf _ ->
                Format.fprintf ppf "ok (%d attempts)"
                  (List.length l.Fleet.b_attempts)))
          rep.Fleet.batch_links;
        print_suspects rep.Fleet.batch_suspects;
        Printf.printf "answers%s:\n"
          (if Outcome.is_degraded rep.Fleet.batch_answers then " (degraded)"
           else "");
        List.iteri
          (fun i q ->
            Printf.printf "  [%d] %-24s -> %s\n" i (Engine.query_to_string q)
              (answer_summary answers.(i)))
          queries;
        Printf.printf "communication     : %d fresh bits across links\n"
          rep.Fleet.batch_fresh_bits
      end;
      finish c
        (base_fields ~subcommand:"batch" c
        @ [
            ( "queries",
              Obs.Json.List
                (List.map
                   (fun q -> Obs.Json.String (Engine.query_to_string q))
                   queries) );
            ( "answers",
              Obs.Json.List
                (Array.to_list
                   (Array.map
                      (fun ans -> Obs.Json.String (answer_summary ans))
                      answers)) );
          ]
        @ fleet_config_fields cfg
        @ [
            ("survivors", Obs.Json.Int rep.Fleet.batch_survivors);
            ("coverage", Obs.Json.Float rep.Fleet.batch_coverage);
            ( "degraded",
              Obs.Json.Bool (Outcome.is_degraded rep.Fleet.batch_answers) );
            ("fleet_bits", Obs.Json.Int rep.Fleet.batch_fresh_bits);
            ( "suspects",
              Obs.Json.List (List.map suspect_fields rep.Fleet.batch_suspects)
            );
            ( "links",
              Obs.Json.List
                (List.map
                   (fun (l : Fleet.batch_link) ->
                     Obs.Json.Obj
                       [
                         ("rank", Obs.Json.Int l.Fleet.b_rank);
                         ("replica", Obs.Json.Int l.Fleet.b_replica);
                         ("rows", Obs.Json.Int l.Fleet.b_range.Shard.length);
                         ( "attempts",
                           Obs.Json.Int (List.length l.Fleet.b_attempts) );
                         ( "verdict",
                           Obs.Json.String (link_verdict l.Fleet.b_answers) );
                       ])
                   rep.Fleet.batch_links) );
          ])

let batch c queries journal compare fleet chaos_spec =
  start c;
  let { n; density; seed; verbose; _ } = c in
  let a, b = Workload.gen_pair ~zipf:false ~seed ~n ~density in
  if fleet.workers > 1 then batch_fleet c queries ~a ~b fleet ~chaos_spec
  else begin
  let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
  let engine = Engine.create () in
  let body ctx =
    install_chaos ~seed chaos_spec ctx;
    Engine.run engine ctx ~a:ai ~b:bi queries
  in
  let run =
    match
      Outcome.guard (fun () ->
          run_logged c ~seed ~journal ~protocol:"batch" body)
    with
    | Ok run -> run
    | Error e ->
        Printf.eprintf "matprod: batch failed: %s\n"
          (Outcome.error_to_string e);
        exit 1
  in
  let rep = run.Ctx.output in
  (* The honest baseline: each query as its own uncached singleton batch. *)
  let standalone_bits =
    if not compare then None
    else
      Some
        (List.fold_left
           (fun acc q ->
             let solo = Engine.create ~plan_cache_capacity:0 () in
             acc
             + (run_ctx c ~seed (fun ctx -> Engine.run solo ctx ~a:ai ~b:bi [ q ]))
                 .Ctx.bits)
           0 queries)
  in
  if not c.json then begin
    Printf.printf "batch of %d queries -> %d exchange groups\n"
      (List.length queries)
      (List.length rep.Engine.groups);
    List.iter
      (fun (g : Engine.group_report) ->
        Printf.printf "  %-24s queries [%s]: %d bits, %d rounds, %s\n"
          g.Engine.family
          (String.concat "; " (List.map string_of_int g.Engine.members))
          g.Engine.bits g.Engine.rounds
          (plan_status_string g.Engine.plan))
      rep.Engine.groups;
    Printf.printf "answers:\n";
    List.iteri
      (fun i q ->
        Printf.printf "  [%d] %-24s -> %s\n" i (Engine.query_to_string q)
          (answer_summary rep.Engine.answers.(i)))
      queries;
    Printf.printf "total             : %d bits, %d rounds\n"
      rep.Engine.total_bits rep.Engine.total_rounds;
    Printf.printf "plan cache        : %d hits, %d misses\n"
      rep.Engine.plan_hits rep.Engine.plan_misses;
    (match standalone_bits with
    | Some solo ->
        Printf.printf
          "standalone        : %d bits -> batching saves %d bits (%.1f%%)\n"
          solo
          (solo - rep.Engine.total_bits)
          (if solo = 0 then 0.0
           else
             100.0
             *. float_of_int (solo - rep.Engine.total_bits)
             /. float_of_int solo)
    | None -> ());
    if verbose then
      Format.printf "transcript:@.%a@." Transcript.pp_summary run.Ctx.transcript
  end;
  finish c
    (base_fields ~subcommand:"batch" c
    @ [
        ( "queries",
          Obs.Json.List
            (List.map
               (fun q -> Obs.Json.String (Engine.query_to_string q))
               queries) );
        ( "groups",
          Obs.Json.List
            (List.map
               (fun (g : Engine.group_report) ->
                 Obs.Json.Obj
                   [
                     ("family", Obs.Json.String g.Engine.family);
                     ( "members",
                       Obs.Json.List
                         (List.map (fun i -> Obs.Json.Int i) g.Engine.members)
                     );
                     ("bits", Obs.Json.Int g.Engine.bits);
                     ("rounds", Obs.Json.Int g.Engine.rounds);
                     ("elapsed_ns", Obs.Json.Int g.Engine.elapsed_ns);
                     ( "plan",
                       Obs.Json.String (plan_status_string g.Engine.plan) );
                   ])
               rep.Engine.groups) );
        ( "answers",
          Obs.Json.List
            (Array.to_list
               (Array.map
                  (fun a -> Obs.Json.String (answer_summary a))
                  rep.Engine.answers)) );
        ("plan_hits", Obs.Json.Int rep.Engine.plan_hits);
        ("plan_misses", Obs.Json.Int rep.Engine.plan_misses);
      ]
    @ (match standalone_bits with
      | Some solo ->
          [
            ("standalone_bits", Obs.Json.Int solo);
            ("saved_bits", Obs.Json.Int (solo - rep.Engine.total_bits));
          ]
      | None -> [])
    @ (match journal with
      | Some path -> [ ("journal", Obs.Json.String path) ]
      | None -> [])
    @ transcript_fields run.Ctx.transcript)
  end

let batch_cmd =
  let query =
    Arg.conv' ~docv:"SPEC"
      ( Engine.query_of_string,
        fun ppf q -> Format.pp_print_string ppf (Engine.query_to_string q) )
  in
  let default_batch =
    List.map
      (fun s -> Result.get_ok (Engine.query_of_string s))
      [ "norm:eps=0.25"; "rows:beta=0.5"; "top:k=5" ]
  in
  let query_arg =
    Arg.(
      value
      & opt_all query default_batch
      & info [ "q"; "query" ] ~docv:"SPEC"
          ~doc:
            "A query spec, repeatable: name:key=val,... with names \
             norm|frob|rows|top|l0|l1|hh|linf|exact (docs/API.md). Default \
             batch: \
             norm, rows, top.")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also run every query standalone and report the transcript bits \
             the batch saved (two-party path only).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Answer a batch of statistic queries about AB through the \
          plan-cached engine: queries sharing a sketch family share one \
          exchange — two-party by default, or sharded across a \
          $(b,--workers) fleet with replica voting and answer verification.")
    Term.(
      const batch $ common_term $ query_arg $ journal_arg $ compare_arg
      $ fleet_term $ chaos_arg)

(* ------------------------------------------------------------------ *)
(* report: offline aggregation of trace files and bench sidecars. *)

let report_cmd =
  let report files =
    let failed = ref false in
    List.iter
      (fun path ->
        match Obs.Telemetry.load_file path with
        | Ok source ->
            Format.printf "%a@." Obs.Telemetry.pp_report (path, source)
        | Error msg ->
            Printf.eprintf "matprod report: %s: %s\n" path msg;
            failed := true)
      files;
    if !failed then exit 1
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Trace files (JSONL or Chrome trace-event) and/or \
             $(b,BENCH_*.json) / $(b,--json) run summaries to summarize.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate trace files and bench/run JSON into per-phase summaries \
          with p50/p90/p99 latencies (docs/OBSERVABILITY.md).")
    Term.(const report $ files_arg)

(* ------------------------------------------------------------------ *)
(* serve: the long-lived estimator daemon, and its load generator. *)

module Server = Matprod_serve.Server
module Loadgen = Matprod_serve.Loadgen

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind/connect (dotted quad).")

let serve c host port journal_dir grace plan_cache =
  start c;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg =
    {
      Server.host;
      port;
      journal_dir;
      plan_cache;
      grace_s = grace;
    }
  in
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
  if not c.json then
    Printf.printf
      "matprod serve: drained — %d sessions, %d batches, %d queries, %d \
       batch errors\n"
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
  let plan_cache_arg =
    Arg.(
      value & opt int 16
      & info [ "plan-cache" ] ~docv:"SLOTS"
          ~doc:"Engine plan-cache capacity, shared across all sessions.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the estimator daemon: register or synthesise matrix pairs, \
          then answer concurrent batched estimator sessions over TCP until \
          SIGTERM/SIGINT, draining cleanly (docs/SERVING.md).")
    Term.(
      const serve $ common_term $ host_arg $ port_arg $ journal_dir_arg
      $ grace_arg $ plan_cache_arg)

let loadgen c host port connections batches queries specs =
  start c;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let { n; density; seed; _ } = c in
  let specs = if specs = [] then [ "norm:eps=0.25" ] else specs in
  let r =
    Loadgen.run ~host ~port ~connections ~batches ~queries ~n ~density ~seed
      ~specs ()
  in
  if not c.json then begin
    Printf.printf
      "loadgen: %d connections x %d batches x %d queries against %s:%d\n"
      r.Loadgen.connections r.Loadgen.batches_per_connection
      r.Loadgen.queries_per_batch host port;
    Printf.printf "answered          : %d/%d (%d errors)\n" r.Loadgen.answered
      r.Loadgen.queries r.Loadgen.errors;
    Printf.printf "peak in flight    : %d queries\n" r.Loadgen.in_flight;
    Printf.printf "throughput        : %.0f queries/s over %.3f s\n"
      r.Loadgen.qps
      (float_of_int r.Loadgen.elapsed_ns /. 1e9);
    Printf.printf "latency           : p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n"
      (float_of_int r.Loadgen.p50_ns /. 1e6)
      (float_of_int r.Loadgen.p90_ns /. 1e6)
      (float_of_int r.Loadgen.p99_ns /. 1e6);
    Printf.printf "transcript        : %d bits (%d replayed)\n" r.Loadgen.bits
      r.Loadgen.replayed_bits;
    Printf.printf "response digest   : %d\n" r.Loadgen.digest
  end;
  if r.Loadgen.errors > 0 then exit 1;
  finish c
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

let main_cmd =
  let doc =
    "distributed statistical estimation of matrix products (Woodruff–Zhang, \
     PODS 2018)"
  in
  Cmd.group
    (Cmd.info "matprod" ~version:"1.0.0" ~doc)
    [ join_size_cmd; linf_cmd; heavy_hitters_cmd; sample_cmd; lowerbound_cmd;
      session_cmd; joins_cmd; estimate_cmd; batch_cmd; report_cmd; serve_cmd;
      loadgen_cmd ]

let () = exit (Cmd.eval main_cmd)
