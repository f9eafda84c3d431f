(* estimate: any registered estimator by name, two-party or fleet. *)

open Cli

let answer_field a =
  ("answer", Obs.Json.String (Format.asprintf "%a" Estimator.pp_answer a))

let estimate_fleet c (e : Estimator.t) ~a ~b fleet ~chaos_spec ~deadline
    ~fleet_journal =
  let link_policy =
    { Fleet.default_link_policy with Fleet.deadline_s = deadline }
  in
  let cfg = fleet_config c fleet ~link_policy ?journal:fleet_journal () in
  let wire = chaos_wire ~seed:c.seed chaos_spec in
  let lead = [ ("estimator", Obs.Json.String e.name) ] in
  match Fleet.run ?wire cfg e ~a ~b with
  | Error err ->
      fleet_failed c cfg ~subcommand:"estimate" ~what:"fleet" ~lead err
  | Ok rep ->
      let link (l : Fleet.link_report) =
        let rungs =
          String.concat "→"
            (List.map
               (fun (at : Supervisor.attempt) ->
                 Supervisor.rung_to_string at.Supervisor.rung)
               l.Fleet.attempts)
        in
        {
          rank = l.Fleet.rank;
          replica = l.Fleet.replica;
          range = l.Fleet.range;
          attempts = List.length l.Fleet.attempts;
          answer =
            Result.map
              (fun v ppf ->
                Format.fprintf ppf "%a  (%d bits%s%s)" Estimator.pp_answer v
                  l.Fleet.fresh_bits
                  (if rungs = "" then "" else ", " ^ rungs)
                  (if l.Fleet.straggled then ", straggled" else ""))
              l.Fleet.answer;
          usage = Some (l.Fleet.fresh_bits, l.Fleet.straggled);
        }
      in
      print_fleet c cfg ~subcommand:"estimate"
        ~lead:(lead @ [ answer_field (Outcome.graded_value rep.Fleet.answer) ])
        ~answers:(fun () ->
          Format.printf "merged answer     : %a@."
            (Outcome.pp_graded Estimator.pp_answer)
            rep.Fleet.answer)
        ~notes:
          (if rep.Fleet.resume_bits_saved = 0 then []
           else
             [ Printf.sprintf "resume savings    : %d bits replayed from journals"
                 rep.Fleet.resume_bits_saved ])
        ~extra:
          [
            ("fleet_rounds", Obs.Json.Int rep.Fleet.fresh_rounds);
            ("resume_bits_saved", Obs.Json.Int rep.Fleet.resume_bits_saved);
          ]
        {
          header =
            Printf.sprintf "%s over %d workers (quorum %d) — %s" e.name
              cfg.Fleet.workers cfg.Fleet.quorum e.describe;
          links = List.map link rep.Fleet.links;
          suspects = rep.Fleet.suspects;
          survivors = rep.Fleet.survivors;
          coverage = rep.Fleet.coverage;
          degraded = Outcome.is_degraded rep.Fleet.answer;
          fresh_bits = rep.Fleet.fresh_bits;
        }

let estimate c (e : Estimator.t) list_all fleet deadline fleet_journal
    chaos_spec =
  let { n; density; seed; _ } = c in
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
      let fields =
        base_fields ~subcommand:"estimate" c
        @ [ ("estimator", Obs.Json.String e.name) ]
      in
      match run.Ctx.output with
      | Error err ->
          fail c ~what:"estimator failed" fields (Outcome.error_to_string err)
      | Ok (answer, _diag) ->
          if not c.json then begin
            Printf.printf "%s — %s\n" e.name e.describe;
            Format.printf "answer            : %a@." Estimator.pp_answer
              answer;
            Printf.printf "communication     : %d bits (predicted ~%.0f)\n"
              run.Ctx.bits predicted.Estimator.bits;
            Printf.printf "rounds            : %d (predicted %d)\n"
              run.Ctx.rounds predicted.Estimator.rounds;
            print_transcript c run.Ctx.transcript
          end;
          finish c
            (fields
            @ [
                answer_field answer;
                ("predicted_bits", Obs.Json.Float predicted.Estimator.bits);
                ("predicted_rounds", Obs.Json.Int predicted.Estimator.rounds);
              ]
            @ transcript_fields run.Ctx.transcript)

let cmd =
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
