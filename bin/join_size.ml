(* join-size: ||AB||_p^p for p in [0,2] (Algorithm 1 and baselines). *)

open Cli

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
  let { n; density; _ } = c in
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
    let hint path =
      Printf.sprintf
        "journal saved to %s — rerun with --resume %s to replay the paid-for \
         prefix"
        path path
    in
    fail c ~what:"run failed" ~hint:(Option.to_list (Option.map hint journal))
      common_fields (Outcome.error_to_string e)
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
            report c ~actual ~estimate:run.Ctx.output run
          end;
          finish c
            (common_fields @ run_fields
            @ estimate_fields ~actual ~estimate:run.Ctx.output
            @ transcript_fields run.Ctx.transcript))

let zipf_arg =
  Arg.(
    value & flag
    & info [ "zipf" ] ~doc:"Use a Zipf-skewed workload instead of uniform.")

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

let cmd =
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
