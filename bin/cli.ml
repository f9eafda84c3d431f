(* Plumbing shared by the matprod subcommands: the common workload and
   observability options, the wire and fault switches, the run summary
   and its one failure exit, and the fleet report. It includes Cmdliner,
   so a subcommand module opens [Cli] alone. *)

include Cmdliner

module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product
module Ctx = Matprod_comm.Ctx
module Transcript = Matprod_comm.Transcript
module Journal = Matprod_comm.Journal
module Fault = Matprod_comm.Fault
module Outcome = Matprod_core.Outcome
module Supervisor = Matprod_core.Supervisor
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry
module Engine = Matprod_engine.Engine
module Fleet = Matprod_topology.Fleet
module Shard = Matprod_topology.Shard
module Workload = Matprod_workload.Workload
module Obs = Matprod_obs

(* Every subcommand takes the same workload and observability options
   through one [common] term instead of each command re-declaring (and
   re-threading) seven arguments. *)

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

(* Apply the domains/metrics/trace switches before any protocol work;
   [common_term] does so as soon as the options parse. *)
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
    let c =
      { n; density; seed; verbose; domains; json; trace; trace_format; transport }
    in
    start c;
    c
  in
  Term.(
    ret
      (const make $ n_arg $ density_arg $ seed_arg $ verbose_arg
      $ domains_arg $ json_arg $ trace_arg $ trace_format_arg $ transport_arg))

let eps_arg =
  Arg.(
    value & opt float 0.25 & info [ "eps" ] ~docv:"EPS" ~doc:"Accuracy target.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead log of the transcript to $(docv); after a crash, \
           --resume $(docv) replays the delivered prefix for zero fresh \
           bits (docs/ROBUSTNESS.md).")

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

(* One grammar for every fault knob (lib/comm/fault.mli). *)
let chaos_arg =
  let chaos =
    Arg.conv' ~docv:"SPEC"
      (Fault.parse, fun ppf t -> Format.pp_print_string ppf (Fault.to_string t))
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
  match Fault.create ~seed:(seed + 77) spec with
  | Some fault -> Ctx.install_wire ctx ~fault ()
  | None -> ()

(* Per-link fault installation for fleet runs ([None] without a spec);
   the per-attempt policy lives in [Fault.for_link]. *)
let chaos_wire ~seed spec =
  if spec = [] then None
  else
    Some
      (fun ~rank ~replica ~attempt ctx ->
        Option.iter
          (fun fault -> Ctx.install_wire ctx ~fault ())
          (Fault.for_link ~seed spec ~rank ~replica ~attempt))

(* One two-party run over the chosen wire. *)
let run_ctx c ~seed body = Ctx.run ?transport:(transport_conn c) ~seed body

(* The same, journaled to [journal] when given. *)
let run_logged c ~seed ~journal ~protocol body =
  match journal with
  | Some path ->
      Ctx.run_journaled ?transport:(transport_conn c) ~seed ~journal:path
        ~protocol body
  | None -> run_ctx c ~seed body

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

(* Every failed run leaves here: "matprod: [what]: [error]" and the [hint]
   lines on stderr, then the trace file and, in JSON mode, the run summary
   of [fields] with an "error" field; exit status 1. *)
let fail c ?what ?(hint = []) fields error =
  Option.iter (fun what -> Printf.eprintf "matprod: %s: %s\n" what error) what;
  List.iter (Printf.eprintf "matprod: %s\n") hint;
  finish c (fields @ [ ("error", Obs.Json.String error) ]);
  exit 1

(* The human report's output, which JSON mode silences. *)
let say c fmt = Printf.ksprintf (fun s -> if not c.json then print_string s) fmt

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

let print_transcript c (tr : Transcript.t) =
  if c.verbose && not c.json then
    Format.printf "transcript:@.%a@." Transcript.pp_summary tr

let report c ~actual ~estimate (run : _ Ctx.run) =
  print_estimate ~actual estimate;
  Printf.printf "communication     : %d bits (%d bytes)\n" run.Ctx.bits
    (run.Ctx.bits / 8);
  Printf.printf "rounds            : %d\n" run.Ctx.rounds;
  print_transcript c run.Ctx.transcript

(* ------------------------------------------------------------------ *)
(* Fleet runs: estimate and batch share the flags, the config and the
   report. *)

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
    match Fleet.check ?quorum ~replicas ~workers () with
    | Error msg -> `Error (true, "--" ^ msg)
    | Ok _ -> `Ok { workers; quorum; replicas; verify }
  in
  Term.(ret (const make $ workers_arg $ quorum_arg $ replicas_arg $ verify_arg))

let fleet_config c f ?link_policy ?journal () =
  Fleet.config ?quorum:f.quorum ~replicas:f.replicas ~verify:f.verify
    ?link_policy ?journal ?transport:(transport_factory c) ~workers:f.workers
    ~seed:c.seed ()

(* One fleet link as the report shows it: [answer] renders the tail of an
   answered link's line, and [usage] is the (bits, straggled) pair only the
   estimate report carries. *)
type link = {
  rank : int;
  replica : int;
  range : Shard.range;
  attempts : int;
  answer : (Format.formatter -> unit, Outcome.error) result;
  usage : (int * bool) option;
}

type fleet_report = {
  header : string;
  links : link list;
  suspects : Fleet.suspect list;
  survivors : int;
  coverage : float;
  degraded : bool;
  fresh_bits : int;
}

let print_link l =
  let label =
    if l.replica = 0 then Printf.sprintf "worker %d" l.rank
    else Printf.sprintf "worker %d.r%d" l.rank l.replica
  in
  match l.answer with
  | Ok tail -> Format.printf "  %s %a: %t@." label Shard.pp_range l.range tail
  | Error (Outcome.Byzantine_detected { check; _ }) ->
      Format.printf "  %s %a: QUARANTINED — violated %s@." label
        Shard.pp_range l.range check
  | Error e ->
      Format.printf "  %s %a: LOST — %s@." label Shard.pp_range l.range
        (Outcome.error_to_string e)

(* The verdict is "ok", the invariant a quarantined replica violated, or
   "lost". *)
let link_json l =
  let verdict =
    match l.answer with
    | Ok _ -> "ok"
    | Error (Outcome.Byzantine_detected { check; _ }) -> check
    | Error _ -> "lost"
  in
  let usage f = Option.fold ~none:[] ~some:f l.usage in
  Obs.Json.(
    Obj
      ([ ("rank", Int l.rank); ("replica", Int l.replica);
         ("rows", Int l.range.Shard.length) ]
      @ usage (fun (bits, _) -> [ ("bits", Int bits) ])
      @ [ ("attempts", Int l.attempts) ]
      @ usage (fun (_, straggled) ->
            [ ("straggled", Bool straggled);
              ("answered", Bool (Result.is_ok l.answer)) ])
      @ [ ("verdict", String verdict) ]))

let fleet_fields (cfg : Fleet.config) =
  Obs.Json.
    [
      ("workers", Int cfg.Fleet.workers);
      ("quorum", Int cfg.Fleet.quorum);
      ("replicas", Int cfg.Fleet.replicas);
      ("verify", Bool cfg.Fleet.verify);
    ]

(* A fleet run that missed its quorum fails with [lead] and the config. *)
let fleet_failed c cfg ~subcommand ~what ~lead e =
  fail c
    ~what:
      (Printf.sprintf "%s failed (quorum %d/%d unmet)" what cfg.Fleet.quorum
         cfg.Fleet.workers)
    (base_fields ~subcommand c @ lead @ fleet_fields cfg)
    (Outcome.error_to_string e)

(* The report of a fleet run that answered. The caller prints its answers
   in [answers] and adds [notes] after the communication line, [lead]
   before the config fields and [extra] after fleet_bits. *)
let print_fleet c cfg ~subcommand ~lead ~answers ?(notes = []) ?(extra = [])
    r =
  if not c.json then begin
    print_endline r.header;
    List.iter print_link r.links;
    if r.suspects <> [] then print_endline "suspects quarantined:";
    List.iter
      (fun (s : Fleet.suspect) ->
        Printf.printf "  worker %d replica %d: %s — %s\n" s.Fleet.s_rank
          s.Fleet.s_replica s.Fleet.s_check s.Fleet.s_detail)
      r.suspects;
    answers ();
    Printf.printf "communication     : %d fresh bits across links\n"
      r.fresh_bits;
    List.iter print_endline notes
  end;
  let suspect (s : Fleet.suspect) =
    Obs.Json.(
      Obj
        [ ("rank", Int s.Fleet.s_rank); ("replica", Int s.Fleet.s_replica);
          ("check", String s.Fleet.s_check);
          ("detail", String s.Fleet.s_detail) ])
  in
  finish c
    (base_fields ~subcommand c @ lead @ fleet_fields cfg
    @ Obs.Json.
        [
          ("survivors", Int r.survivors);
          ("coverage", Float r.coverage);
          ("degraded", Bool r.degraded);
          ("fleet_bits", Int r.fresh_bits);
        ]
    @ extra
    @ Obs.Json.
        [
          ("suspects", List (List.map suspect r.suspects));
          ("links", List (List.map link_json r.links));
        ])
