(* batch: queries through the plan-cached engine, two-party or fleet. *)

open Cli

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

let group_json (g : Engine.group_report) =
  Obs.Json.(
    Obj
      [
        ("family", String g.Engine.family);
        ("members", List (List.map (fun i -> Int i) g.Engine.members));
        ("bits", Int g.Engine.bits);
        ("rounds", Int g.Engine.rounds);
        ("elapsed_ns", Int g.Engine.elapsed_ns);
        ("plan", String (plan_status_string g.Engine.plan));
      ])

let queries_json queries =
  Obs.Json.List
    (List.map (fun q -> Obs.Json.String (Engine.query_to_string q)) queries)

let answers_json answers =
  Obs.Json.List
    (Array.to_list
       (Array.map (fun a -> Obs.Json.String (answer_summary a)) answers))

let print_answers queries answers =
  List.iteri
    (fun i q ->
      Printf.printf "  [%d] %-24s -> %s\n" i (Engine.query_to_string q)
        (answer_summary answers.(i)))
    queries

let batch_fleet c queries ~a ~b fleet ~chaos_spec =
  let cfg = fleet_config c fleet () in
  let engine = Engine.create () in
  let wire = chaos_wire ~seed:c.seed chaos_spec in
  let lead = [ ("queries", queries_json queries) ] in
  match Fleet.run_batch ?wire cfg engine queries ~a ~b with
  | Error e ->
      fleet_failed c cfg ~subcommand:"batch" ~what:"batch fleet" ~lead e
  | Ok rep ->
      let answers = Outcome.graded_value rep.Fleet.batch_answers in
      let degraded = Outcome.is_degraded rep.Fleet.batch_answers in
      let link (l : Fleet.batch_link) =
        let attempts = List.length l.Fleet.b_attempts in
        {
          rank = l.Fleet.b_rank;
          replica = l.Fleet.b_replica;
          range = l.Fleet.b_range;
          attempts;
          answer =
            Result.map
              (fun _ ppf -> Format.fprintf ppf "ok (%d attempts)" attempts)
              l.Fleet.b_answers;
          usage = None;
        }
      in
      print_fleet c cfg ~subcommand:"batch"
        ~lead:(lead @ [ ("answers", answers_json answers) ])
        ~answers:(fun () ->
          Printf.printf "answers%s:\n" (if degraded then " (degraded)" else "");
          print_answers queries answers)
        {
          header =
            Printf.sprintf "batch of %d queries over %d workers (quorum %d)"
              (List.length queries) cfg.Fleet.workers cfg.Fleet.quorum;
          links = List.map link rep.Fleet.batch_links;
          suspects = rep.Fleet.batch_suspects;
          survivors = rep.Fleet.batch_survivors;
          coverage = rep.Fleet.batch_coverage;
          degraded;
          fresh_bits = rep.Fleet.batch_fresh_bits;
        }

let batch c queries journal compare fleet chaos_spec =
  let { n; density; seed; _ } = c in
  let a, b = Workload.gen_pair ~zipf:false ~seed ~n ~density in
  if fleet.workers > 1 then batch_fleet c queries ~a ~b fleet ~chaos_spec
  else
    let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
    let engine = Engine.create () in
    let body ctx =
      install_chaos ~seed chaos_spec ctx;
      Engine.run engine ctx ~a:ai ~b:bi queries
    in
    let lead =
      base_fields ~subcommand:"batch" c @ [ ("queries", queries_json queries) ]
    in
    match
      Outcome.guard (fun () -> run_logged c ~seed ~journal ~protocol:"batch" body)
    with
    | Error e -> fail c ~what:"batch failed" lead (Outcome.error_to_string e)
    | Ok run ->
        let rep = run.Ctx.output in
        (* The honest baseline: each query as its own uncached singleton
           batch. *)
        let standalone_bits =
          if not compare then None
          else
            Some
              (List.fold_left
                 (fun acc q ->
                   let solo = Engine.create () in
                   acc
                   + (run_ctx c ~seed (fun ctx ->
                          Engine.run solo ctx ~a:ai ~b:bi [ q ]))
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
          print_answers queries rep.Engine.answers;
          Printf.printf "total             : %d bits, %d rounds\n"
            rep.Engine.total_bits rep.Engine.total_rounds;
          Printf.printf "plan cache        : %d hits, %d misses\n"
            rep.Engine.plan_hits rep.Engine.plan_misses;
          (match standalone_bits with
          | Some solo ->
              Printf.printf
                "standalone        : %d bits -> batching saves %d bits \
                 (%.1f%%)\n"
                solo
                (solo - rep.Engine.total_bits)
                (if solo = 0 then 0.0
                 else
                   100.0
                   *. float_of_int (solo - rep.Engine.total_bits)
                   /. float_of_int solo)
          | None -> ());
          print_transcript c run.Ctx.transcript
        end;
        finish c
          (lead
          @ [
              ("groups", Obs.Json.List (List.map group_json rep.Engine.groups));
              ("answers", answers_json rep.Engine.answers);
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

let cmd =
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
